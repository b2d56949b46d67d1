//! Sharded pass emulation: per-shard QueryRouters over a hash-partitioned
//! feed, merged back into single-stream answers — *exactly*.
//!
//! One round's merged batch is split by routing key with the same hash
//! the [`ShardedFeed`] partitions updates with: vertex-keyed queries
//! (`f2`, both `f3` forms) go to the shard of their vertex, `f4` goes to
//! the shard of the edge's canonical endpoint, and the two global kinds
//! stay with the driver (`EdgeCount` is answered from the feed's net
//! delta; `f1` position targets are drawn centrally and matched against
//! the global positions each delivery carries). Each shard then rebuilds
//! its pooled router from the [`crate::arena::RouterArena`] and replays
//! only its own buffer.
//!
//! This is the only pass machine: a single stream is a one-shard feed
//! (the [`crate::exec`] entry points partition it so), and at one shard
//! the batch moves whole into slot 0, whose router answers every kind
//! but `f1`. A multiplexed round ([`crate::multiplex`]) is the same pass
//! over a batch of several seed runs ([`SeedRun`]), one per participant.
//!
//! **Equivalence, not approximation.** The sharded pass produces answers
//! byte-identical to the frozen `crate::reference` oracle for every
//! fixed seed and any shard count, because nothing about a query's
//! answer depends on updates its shard doesn't see:
//!
//! * a shard receives every update incident to a vertex it owns, in
//!   stream order, so degree counts, watcher arrivals, and neighbor
//!   sampler offer sequences are unchanged;
//! * samplers are seeded by their **global** batch slot
//!   (`split_seed(pass_seed, slot)` in a solo round, relative to the
//!   slot's seed run in a multiplexed one), the same coins the reference
//!   executors hand out;
//! * `f1` targets are drawn from the pass rng in batch order before any
//!   shard runs — the same draw sequence as a single-stream pass — and
//!   matched by global position (duplicate deliveries record identical
//!   hits);
//! * turnstile `f1` ℓ₀-banks are linear sketches: every shard feeds an
//!   identically-seeded bank with its *owned* deliveries only, and
//!   [`L0Sampler::merge`] reassembles the exact single-stream state.
//!
//! `tests/sharded_equivalence.rs` pins all of this against
//! `sgs_query::reference` for shard counts 1, 2, 4, 7.
//!
//! Execution: one worker per shard under `std::thread::scope` when the
//! injected [`ExecPolicy`] says to thread (default: when the host has
//! more than one core; the `sgs` CLI maps `SGS_SHARD_THREADS=0|1` to a
//! policy at startup — the library never reads the environment);
//! per-shard feed durations are recorded in the arena either way, so
//! `benches/sharded.rs` can report the critical-path (max-shard) pass
//! latency a one-core-per-shard deployment would see.

use crate::accounting::ExecReport;
use crate::arena::{RouterArena, ShardSlot};
use crate::exec::{PassOpts, ANSWER_BYTES};
use crate::policy::ExecPolicy;
use crate::query::{Answer, Query};
use crate::round::RoundAdaptive;
use crate::router::Model;
use sgs_graph::{Edge, VertexId};
use sgs_stream::hash::{split_seed, FastRng};
use sgs_stream::l0::L0Sampler;
use sgs_stream::persist::{frame, read_frame_of, Decoder, Encoder, PersistResult, KIND_PASS_STATE};
use sgs_stream::reservoir::{ReservoirBank, ReservoirMode};
use sgs_stream::sharded::{ShardUpdate, ShardedFeed};
use sgs_stream::EdgeUpdate;
use std::time::Instant;

/// What one shard reports back to the merge step.
pub(crate) struct ShardOutcome {
    /// `f1` position hits, keyed by **global** slot. Duplicated across
    /// shards when an update was delivered to both endpoints' shards —
    /// duplicates carry identical edges, so merge order is irrelevant.
    pub(crate) edge_hits: Vec<(u32, Edge)>,
    /// Turnstile only: the shard's identically-seeded `f1` ℓ₀-bank over
    /// its owned deliveries, to be merged across shards.
    pub(crate) f1_bank: Vec<L0Sampler>,
    /// Measured sketch/router footprint of this shard's pass state.
    pub(crate) space_bytes: usize,
}

/// Sort `f1` position targets by `(position, slot)`. Positions live in
/// `0..stream_len`, so when a counting table is affordable a two-pass
/// bucket sort beats the comparison sort that dominates round-1 setup at
/// large trial counts. Targets arrive slot-ascending, so bucketing is
/// stable in exactly the comparison order.
pub(crate) fn sort_targets(targets: &mut Vec<(u64, u32)>, stream_len: u64) {
    if targets.is_empty() {
        return;
    }
    if stream_len > 4 * targets.len() as u64 + 1024 {
        targets.sort_unstable();
        return;
    }
    let mut counts = vec![0u32; stream_len as usize + 1];
    for &(pos, _) in targets.iter() {
        counts[pos as usize + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    let mut sorted = vec![(0u64, 0u32); targets.len()];
    for &(pos, slot) in targets.iter() {
        sorted[counts[pos as usize] as usize] = (pos, slot);
        counts[pos as usize] += 1;
    }
    *targets = sorted;
}

/// One contiguous run of a round's batch whose samplers share one coin
/// chain: a solo round is one run, a multiplexed round one run per
/// participant. The query at global slot `g` of the run is the
/// `g − start`-th query of its own batch.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SeedRun {
    /// First global batch slot of the run.
    pub(crate) start: u32,
    /// The run's pass seed: the coins of its solo pass.
    pub(crate) pass_seed: u64,
    /// Acceptance scheme of the run's relaxed-`f3` reservoirs.
    pub(crate) reservoir: ReservoirMode,
}

impl SeedRun {
    /// The one run of a solo round.
    pub(crate) fn solo(pass_seed: u64, opts: PassOpts) -> Vec<SeedRun> {
        vec![SeedRun {
            start: 0,
            pass_seed,
            reservoir: opts.reservoir,
        }]
    }
}

/// What every shard pass of one round shares: the driver-side half of
/// the batch and its seed runs. Built by the pass prologue
/// ([`PassCtx::begin`]), consumed by the epilogue ([`PassCtx::finish`]).
/// Its buffers are per-pass state, like the samplers: the arena does not
/// keep them.
pub(crate) struct PassCtx {
    num_vertices: usize,
    batch_len: usize,
    /// The round's seed runs, ascending by `start`; the first starts at 0.
    runs: Vec<SeedRun>,
    /// The round's `EdgeCount` global slots, answered from the feed's
    /// net delta.
    count_slots: Vec<u32>,
    /// The round's `RandomEdge` global slots, in batch order. Turnstile
    /// `f1` ℓ₀-banks are seeded by, and answer, these slots.
    f1_slots: Vec<u32>,
    /// Insertion: the round's `f1` position targets `(position, global
    /// slot)`, sorted by position. Empty in the turnstile model.
    targets: Vec<(u64, u32)>,
}

impl PassCtx {
    /// Split a batch into per-shard sub-batches (vertex/edge-keyed kinds)
    /// and the driver-kept global slot lists (`EdgeCount`, `RandomEdge`).
    /// Routing goes through the feed's [`sgs_stream::sharded::ShardMap`]
    /// — the same placement (uniform hash plus any load-balancing
    /// overrides) the delivery buffers were built with, which is exactly
    /// why placement never changes answers.
    ///
    /// With one shard the batch moves whole into slot 0 with an identity
    /// slot map: no copy, and slot 0's router sees every query, exactly
    /// as a single-stream pass would.
    ///
    /// Then draw the `f1` position targets (insertion; the turnstile
    /// ℓ₀-banks keep the `f1` slots): each run's from `FastRng(its pass
    /// seed)` in its own batch order — the exact coin sequence of its solo
    /// pass and of the frozen reference executors — sorted by position
    /// for cursor matching. Hits scatter to disjoint slots, so merging
    /// runs' targets cannot leak coins between them.
    pub(crate) fn begin(
        model: Model,
        batch: Vec<Query>,
        feed: &ShardedFeed,
        runs: Vec<SeedRun>,
        arena: &mut RouterArena,
    ) -> Self {
        debug_assert!(
            runs.first().is_some_and(|r| r.start == 0),
            "runs must tile the batch"
        );
        let map = feed.shard_map();
        let shards = map.num_shards();
        arena.ensure_shards(shards);
        for slot in &mut arena.slots[..shards] {
            slot.sub_batch.clear();
            slot.slot_map.clear();
        }
        let mut ctx = PassCtx {
            num_vertices: feed.num_vertices(),
            batch_len: batch.len(),
            runs,
            count_slots: Vec::new(),
            f1_slots: Vec::new(),
            targets: Vec::new(),
        };
        for (i, q) in batch.iter().enumerate() {
            let key = match *q {
                Query::EdgeCount => {
                    ctx.count_slots.push(i as u32);
                    continue;
                }
                Query::RandomEdge => {
                    ctx.f1_slots.push(i as u32);
                    continue;
                }
                Query::Degree(v) | Query::RandomNeighbor(v) => v.0,
                Query::IthNeighbor(v, _) => {
                    if model == Model::Turnstile {
                        panic!(
                            "IthNeighbor is not available in the turnstile model \
                             (Definition 10 replaces it with RandomNeighbor)"
                        );
                    }
                    v.0
                }
                // The canonical endpoint's shard sees every update of this
                // edge (it is an endpoint), so it can answer `f4` alone.
                Query::Adjacent(u, v) => Edge::new(u, v).u().0,
            };
            if shards != 1 {
                let slot = &mut arena.slots[map.shard_of(key)];
                slot.sub_batch.push(*q);
                slot.slot_map.push(i as u32);
            }
        }
        if shards == 1 {
            arena.slots[0].sub_batch = batch;
        }
        let stream_len = feed.stream_len() as u64;
        if model == Model::Insertion && stream_len > 0 {
            // `f1_slots` ascends and runs are contiguous, so each run's
            // slots arrive together, in its own batch order.
            let mut run = 0;
            let mut rng = FastRng::seed_from_u64(ctx.runs[0].pass_seed);
            ctx.targets.reserve_exact(ctx.f1_slots.len());
            for &slot in &ctx.f1_slots {
                let r = ctx.run_index(slot);
                if r != run {
                    run = r;
                    rng = FastRng::seed_from_u64(ctx.runs[r].pass_seed);
                }
                ctx.targets.push((rng.gen_range(0..stream_len), slot));
            }
            sort_targets(&mut ctx.targets, stream_len);
        }
        ctx
    }

    /// Index of the seed run holding global slot `slot`.
    #[inline]
    fn run_index(&self, slot: u32) -> usize {
        self.runs.partition_point(|r| r.start <= slot) - 1
    }

    /// The sampler seed of global slot `slot`: `split_seed(run pass
    /// seed, slot within the run's own batch)` — solo seeding verbatim —
    /// and the run's reservoir mode.
    #[inline]
    fn lane(&self, slot: u32) -> (u64, ReservoirMode) {
        let run = &self.runs[self.run_index(slot)];
        (
            split_seed(run.pass_seed, (slot - run.start) as u64),
            run.reservoir,
        )
    }

    /// The pass epilogue: merge shard-local answers and driver-kept
    /// state into the batch-wide answer vector, and merge the per-shard
    /// turnstile `f1` banks (linear sketches: the result is the exact
    /// single-stream sketch state). With one shard, slot 0's answer
    /// vector already is the batch-wide one and is handed out as is.
    /// Returns the answers and the measured pass footprint.
    pub(crate) fn finish(
        self,
        model: Model,
        feed: &ShardedFeed,
        arena: &mut RouterArena,
        mut outcomes: Vec<ShardOutcome>,
    ) -> (Vec<Answer>, usize) {
        let mut space = outcomes.iter().map(|o| o.space_bytes).sum::<usize>();
        let mut answers = match &mut arena.slots[..outcomes.len()] {
            [only] => {
                let answers = std::mem::take(&mut only.answers);
                only.release();
                answers
            }
            slots => {
                let mut answers = vec![Answer::Edge(None); self.batch_len];
                for slot in slots.iter() {
                    for (local, &global) in slot.slot_map.iter().enumerate() {
                        answers[global as usize] = slot.answers[local];
                    }
                }
                answers
            }
        };
        let m = feed.final_edge_count().max(0) as usize;
        for &s in &self.count_slots {
            answers[s as usize] = Answer::EdgeCount(m);
        }
        for o in &outcomes {
            for &(slot, e) in &o.edge_hits {
                answers[slot as usize] = Answer::Edge(Some(e));
            }
        }
        match model {
            Model::Insertion => space += self.targets.len() * 16,
            Model::Turnstile => {
                let (head, rest) = outcomes.split_at_mut(1);
                for o in rest.iter() {
                    for (a, b) in head[0].f1_bank.iter_mut().zip(&o.f1_bank) {
                        a.merge(b);
                    }
                }
                for (&slot, s) in self.f1_slots.iter().zip(&outcomes[0].f1_bank) {
                    answers[slot as usize] = Answer::Edge(s.sample().map(Edge::from_key));
                }
            }
        }
        (answers, space)
    }
}

/// Insertion `f1`: record the hits at delivery `su`'s global position,
/// first skipping targets whose position lives in another shard's
/// buffer. `targets` is sorted by position and deliveries arrive in
/// stream order, so `cursor` only moves forward.
#[inline]
pub(crate) fn match_targets(
    targets: &[(u64, u32)],
    cursor: &mut usize,
    hits: &mut Vec<(u32, Edge)>,
    su: &ShardUpdate,
) {
    debug_assert!(su.update.is_insert(), "insertion executor fed a deletion");
    let pos = su.position as u64;
    while *cursor < targets.len() && targets[*cursor].0 < pos {
        *cursor += 1;
    }
    while *cursor < targets.len() && targets[*cursor].0 == pos {
        hits.push((targets[*cursor].1, su.update.edge));
        *cursor += 1;
    }
}

/// One shard's insertion-model pass as a **resumable state machine**:
/// the per-delivery work, decoupled from where deliveries come from.
/// The scoped-thread path feeds it the shard buffer in one call; the
/// broadcast path feeds it ring blocks filtered down to this shard's
/// deliveries as they arrive at the cursor. Delivery *chunking* differs
/// between the two, but chunk boundaries never change an answer (the
/// block-equivalence property), so both paths stay byte-identical to
/// the reference executors.
pub(crate) struct InsertionShardPass<'a> {
    slot: &'a mut ShardSlot,
    targets: &'a [(u64, u32)],
    block: usize,
    reservoirs: ReservoirBank<Edge>,
    edge_hits: Vec<(u32, Edge)>,
    cursor: usize,
    buf: Vec<EdgeUpdate>,
}

impl<'a> InsertionShardPass<'a> {
    /// Rebuild the pooled router and seed the pass state. The
    /// relaxed-f3 reservoir bank is aligned with the shard router's
    /// pooled slots; each lane takes its seed and mode from its global
    /// slot's seed run — the single-stream coins of its own solo pass. A
    /// neighbor sampler's vertex lives entirely in this shard, so its
    /// offer (and therefore draw) sequence is exactly the single-stream
    /// one in either reservoir mode. Lanes of different runs share a
    /// vertex group in a multiplexed round; the bank splits the group's
    /// cohort only where the mode changes.
    pub(crate) fn new(slot: &'a mut ShardSlot, ctx: &'a PassCtx, opts: PassOpts) -> Self {
        slot.router.rebuild(&slot.sub_batch, Model::Insertion);
        let mut reservoirs: ReservoirBank<Edge> = ReservoirBank::from_lanes(
            slot.router
                .neighbor_slots()
                .iter()
                .map(|&ls| ctx.lane(slot.global_slot(ls))),
            ctx.runs[0].reservoir,
        );
        reservoirs.bind_cohorts(slot.router.neighbor_group_ranges());
        InsertionShardPass {
            slot,
            targets: &ctx.targets,
            block: opts.block,
            reservoirs,
            edge_hits: Vec::new(),
            cursor: 0,
            buf: Vec::new(),
        }
    }

    /// Absorb the next run of deliveries (global stream order, possibly
    /// a partial prefix — callable repeatedly).
    pub(crate) fn feed(&mut self, deliveries: &[ShardUpdate]) {
        let block = self.block;
        if block <= 1 {
            for su in deliveries {
                match_targets(self.targets, &mut self.cursor, &mut self.edge_hits, su);
                let edge = su.update.edge;
                let res = &mut self.reservoirs;
                self.slot.router.feed(su.update, |s, e| {
                    res.offer_cohort(s as usize, e as usize, edge)
                });
            }
        } else {
            // Blocked path: position targets are matched per delivery
            // (they carry global positions), then each block goes
            // through the router's batched-probe drain.
            let mut buf = std::mem::take(&mut self.buf);
            for chunk in deliveries.chunks(block) {
                buf.clear();
                for su in chunk {
                    match_targets(self.targets, &mut self.cursor, &mut self.edge_hits, su);
                    buf.push(su.update);
                }
                let res = &mut self.reservoirs;
                self.slot.router.feed_block(&buf, |j, s, e| {
                    res.offer_cohort(s as usize, e as usize, buf[j].edge)
                });
            }
            self.buf = buf;
        }
    }

    /// RNG draws the relaxed-`f3` reservoir bank has consumed so far.
    pub(crate) fn reservoir_draws(&self) -> u64 {
        self.reservoirs.rng_draws()
    }

    /// Serialize the mutable mid-pass state: the reservoir bank (RNG
    /// words included), the `f1` position hits recorded so far, and the
    /// target cursor. The router, targets, and batch are *not* included
    /// — they are rebuilt deterministically by [`InsertionShardPass::new`]
    /// from the round's batch and seed run, so a restored pass resumes
    /// byte-identically from the snapshot's delivery boundary. Only solo
    /// passes are checkpointed, so the bank is always uniform.
    pub(crate) fn snapshot_state(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.u8(0); // model tag: insertion
        self.slot.router.encode_feed_state(&mut enc);
        enc.u64(self.cursor as u64);
        enc.u64(self.edge_hits.len() as u64);
        for &(slot, e) in &self.edge_hits {
            enc.u32(slot);
            enc.edge(e);
        }
        enc.blob(&self.reservoirs.to_persist_bytes());
        frame(KIND_PASS_STATE, &enc.into_bytes())
    }

    /// Restore mid-pass state captured by
    /// [`InsertionShardPass::snapshot_state`] into a freshly built pass
    /// over the same batch, seed runs, and options.
    pub(crate) fn restore_state(&mut self, bytes: &[u8]) -> PersistResult<()> {
        let f = read_frame_of(bytes, 0, KIND_PASS_STATE)?;
        let mut dec = Decoder::new(f.payload);
        if dec.u8("pass model")? != 0 {
            return Err(dec.corrupt("pass state is not an insertion pass"));
        }
        self.slot.router.restore_feed_state(&mut dec)?;
        let cursor = dec.u64("target cursor")? as usize;
        if cursor > self.targets.len() {
            return Err(dec.corrupt(format!(
                "target cursor {cursor} exceeds {} targets",
                self.targets.len()
            )));
        }
        let hits = dec.count(12, "edge hits")?;
        let mut edge_hits = Vec::with_capacity(hits);
        for _ in 0..hits {
            let slot = dec.u32("hit slot")?;
            let e = dec.edge("hit edge")?;
            edge_hits.push((slot, e));
        }
        let res = dec.blob("reservoir bank")?;
        dec.finish()?;
        self.reservoirs.restore_from_persist_bytes(res)?;
        self.edge_hits = edge_hits;
        self.cursor = cursor;
        Ok(())
    }

    /// End of stream: fill shard-local answers and report the outcome.
    pub(crate) fn finish(self) -> ShardOutcome {
        let InsertionShardPass {
            slot,
            reservoirs,
            edge_hits,
            ..
        } = self;
        let space_bytes = slot.router.space_bytes() + reservoirs.space_bytes();
        slot.answers.clear();
        slot.answers
            .resize(slot.sub_batch.len(), Answer::Edge(None));
        for ((&ls, v), res) in slot
            .router
            .neighbor_slots()
            .iter()
            .zip(slot.router.neighbor_vertices())
            .zip(reservoirs.samples_iter())
        {
            slot.answers[ls as usize] = Answer::Neighbor(res.map(|e| e.other(v)));
        }
        slot.router.distribute(&mut slot.answers);
        ShardOutcome {
            edge_hits,
            f1_bank: Vec::new(),
            space_bytes,
        }
    }
}

/// One shard's turnstile-model pass as a resumable state machine (see
/// [`InsertionShardPass`]).
pub(crate) struct TurnstileShardPass<'a> {
    slot: &'a mut ShardSlot,
    opts: PassOpts,
    f1_bank: Vec<L0Sampler>,
    nbr_samplers: Vec<L0Sampler>,
    nbr_verts: Vec<VertexId>,
    buf: Vec<EdgeUpdate>,
    owned_kd: Vec<(u64, i64)>,
}

impl<'a> TurnstileShardPass<'a> {
    /// Rebuild the pooled router and seed the sketch banks, every
    /// sampler by its global batch slot's seed run (the solo coin of the
    /// slot's own pass). Every shard keeps the full `f1` bank,
    /// identically seeded, and feeds it *owned* deliveries only: merging
    /// the banks across shards reassembles the exact single-stream
    /// sketch state (ℓ₀-samplers are linear).
    pub(crate) fn new(slot: &'a mut ShardSlot, ctx: &PassCtx, opts: PassOpts) -> Self {
        slot.router.rebuild(&slot.sub_batch, Model::Turnstile);
        let num_vertices = ctx.num_vertices;
        let f1_bank: Vec<L0Sampler> = ctx
            .f1_slots
            .iter()
            .map(|&gs| L0Sampler::for_edge_domain(num_vertices, ctx.lane(gs).0))
            .collect();
        let nbr_samplers: Vec<L0Sampler> = slot
            .router
            .neighbor_slots()
            .iter()
            .map(|&ls| L0Sampler::for_edge_domain(num_vertices, ctx.lane(slot.global_slot(ls)).0))
            .collect();
        let nbr_verts: Vec<VertexId> = slot.router.neighbor_vertices().collect();
        TurnstileShardPass {
            slot,
            opts,
            f1_bank,
            nbr_samplers,
            nbr_verts,
            buf: Vec::new(),
            owned_kd: Vec::new(),
        }
    }

    /// Absorb the next run of deliveries (callable repeatedly).
    pub(crate) fn feed(&mut self, deliveries: &[ShardUpdate]) {
        let l0 = self.opts.l0;
        if self.opts.block <= 1 {
            for su in deliveries {
                let d = su.update.delta as i64;
                if su.owned {
                    let key = su.update.edge.key();
                    for s in &mut self.f1_bank {
                        s.update_with(l0, key, d);
                    }
                }
                let edge = su.update.edge;
                let samplers = &mut self.nbr_samplers;
                let verts = &self.nbr_verts;
                self.slot.router.feed(su.update, |s, e| {
                    for i in s as usize..e as usize {
                        samplers[i].update_with(l0, edge.other(verts[i]).0 as u64, d);
                    }
                });
            }
        } else {
            // Blocked path: the f1 bank absorbs each block's *owned*
            // updates samplers outer, updates inner (ℓ₀ planes
            // cache-hot per bank; bit-identical because detector fields
            // are additive), and the router drains the full block
            // through its batched probes.
            let mut buf = std::mem::take(&mut self.buf);
            let mut owned_kd = std::mem::take(&mut self.owned_kd);
            for chunk in deliveries.chunks(self.opts.block) {
                buf.clear();
                owned_kd.clear();
                for su in chunk {
                    if su.owned {
                        owned_kd.push((su.update.edge.key(), su.update.delta as i64));
                    }
                    buf.push(su.update);
                }
                for s in &mut self.f1_bank {
                    s.update_batch_with(l0, &owned_kd);
                }
                let samplers = &mut self.nbr_samplers;
                let verts = &self.nbr_verts;
                self.slot.router.feed_block(&buf, |j, s, e| {
                    let u = buf[j];
                    for i in s as usize..e as usize {
                        samplers[i].update_with(
                            l0,
                            u.edge.other(verts[i]).0 as u64,
                            u.delta as i64,
                        );
                    }
                });
            }
            self.buf = buf;
            self.owned_kd = owned_kd;
        }
    }

    /// Serialize the mutable mid-pass state: every ℓ₀-sampler of the
    /// `f1` bank and the neighbor bank, counters and all. Router and
    /// vertex lists are rebuilt by [`TurnstileShardPass::new`].
    pub(crate) fn snapshot_state(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.u8(1); // model tag: turnstile
        self.slot.router.encode_feed_state(&mut enc);
        enc.u64(self.f1_bank.len() as u64);
        for s in &self.f1_bank {
            enc.blob(&s.to_persist_bytes());
        }
        enc.u64(self.nbr_samplers.len() as u64);
        for s in &self.nbr_samplers {
            enc.blob(&s.to_persist_bytes());
        }
        frame(KIND_PASS_STATE, &enc.into_bytes())
    }

    /// Restore mid-pass state captured by
    /// [`TurnstileShardPass::snapshot_state`] into a freshly built pass
    /// over the same batch, `f1` slots, and seed run.
    pub(crate) fn restore_state(&mut self, bytes: &[u8]) -> PersistResult<()> {
        let f = read_frame_of(bytes, 0, KIND_PASS_STATE)?;
        let mut dec = Decoder::new(f.payload);
        if dec.u8("pass model")? != 1 {
            return Err(dec.corrupt("pass state is not a turnstile pass"));
        }
        self.slot.router.restore_feed_state(&mut dec)?;
        let f1 = dec.count(8, "f1 bank")?;
        if f1 != self.f1_bank.len() {
            return Err(dec.corrupt(format!(
                "snapshot has {f1} f1 samplers, pass expects {}",
                self.f1_bank.len()
            )));
        }
        let mut f1_bank = Vec::with_capacity(f1);
        for _ in 0..f1 {
            f1_bank.push(L0Sampler::from_persist_bytes(dec.blob("f1 sampler")?)?);
        }
        let nbr = dec.count(8, "neighbor bank")?;
        if nbr != self.nbr_samplers.len() {
            return Err(dec.corrupt(format!(
                "snapshot has {nbr} neighbor samplers, pass expects {}",
                self.nbr_samplers.len()
            )));
        }
        let mut nbr_samplers = Vec::with_capacity(nbr);
        for _ in 0..nbr {
            nbr_samplers.push(L0Sampler::from_persist_bytes(
                dec.blob("neighbor sampler")?,
            )?);
        }
        dec.finish()?;
        self.f1_bank = f1_bank;
        self.nbr_samplers = nbr_samplers;
        Ok(())
    }

    /// End of stream: fill shard-local answers and report the outcome.
    pub(crate) fn finish(self) -> ShardOutcome {
        let TurnstileShardPass {
            slot,
            f1_bank,
            nbr_samplers,
            ..
        } = self;
        let space_bytes = slot.router.space_bytes()
            + f1_bank
                .iter()
                .chain(&nbr_samplers)
                .map(sgs_stream::SpaceUsage::space_bytes)
                .sum::<usize>();
        slot.answers.clear();
        slot.answers
            .resize(slot.sub_batch.len(), Answer::Edge(None));
        for (&ls, s) in slot.router.neighbor_slots().iter().zip(&nbr_samplers) {
            slot.answers[ls as usize] = Answer::Neighbor(s.sample().map(|k| VertexId(k as u32)));
        }
        slot.router.distribute(&mut slot.answers);
        ShardOutcome {
            edge_hits: Vec::new(),
            f1_bank,
            space_bytes,
        }
    }
}

/// One shard's pass state machine for one round, in either stream model:
/// the one type the sharded, ring, runtime, checkpointed and multiplexed
/// engines feed. Every sampler takes its coins from its global slot's
/// seed run in the [`PassCtx`], so a solo round (one run) and a
/// multiplexed one (a run per participant) are the same machine.
pub(crate) enum ShardPass<'a> {
    Insertion(InsertionShardPass<'a>),
    Turnstile(TurnstileShardPass<'a>),
}

impl<'a> ShardPass<'a> {
    /// Build `model`'s pass over `slot` for the round `ctx` describes.
    pub(crate) fn new(
        model: Model,
        slot: &'a mut ShardSlot,
        ctx: &'a PassCtx,
        opts: PassOpts,
    ) -> Self {
        match model {
            Model::Insertion => ShardPass::Insertion(InsertionShardPass::new(slot, ctx, opts)),
            Model::Turnstile => ShardPass::Turnstile(TurnstileShardPass::new(slot, ctx, opts)),
        }
    }

    /// Absorb the next run of deliveries, in global stream order
    /// (possibly a partial prefix — callable repeatedly).
    pub(crate) fn feed(&mut self, deliveries: &[ShardUpdate]) {
        match self {
            ShardPass::Insertion(p) => p.feed(deliveries),
            ShardPass::Turnstile(p) => p.feed(deliveries),
        }
    }

    /// Record this pass's feed duration into its arena slot, for the
    /// arena's per-shard critical-path telemetry.
    pub(crate) fn record_pass_nanos(&mut self, nanos: u64) {
        match self {
            ShardPass::Insertion(p) => p.slot.pass_nanos.push(nanos),
            ShardPass::Turnstile(p) => p.slot.pass_nanos.push(nanos),
        }
    }

    /// End of stream: fill shard-local answers and report the outcome.
    pub(crate) fn finish(self) -> ShardOutcome {
        match self {
            ShardPass::Insertion(p) => p.finish(),
            ShardPass::Turnstile(p) => p.finish(),
        }
    }

    /// Serialize the mutable mid-pass state (see the per-model
    /// `snapshot_state`); the leading tag byte is [`Model::tag`].
    pub(crate) fn snapshot_state(&self) -> Vec<u8> {
        match self {
            ShardPass::Insertion(p) => p.snapshot_state(),
            ShardPass::Turnstile(p) => p.snapshot_state(),
        }
    }

    /// Restore mid-pass state captured by [`ShardPass::snapshot_state`]
    /// into a freshly built pass over the same round.
    pub(crate) fn restore_state(&mut self, bytes: &[u8]) -> PersistResult<()> {
        match self {
            ShardPass::Insertion(p) => p.restore_state(bytes),
            ShardPass::Turnstile(p) => p.restore_state(bytes),
        }
    }
}

/// Run one pass over every shard's private buffer, threaded or inline
/// per the injected [`ExecPolicy`], collecting outcomes in shard order.
/// Each shard's [`ShardPass`] is built from `ctx` on its own worker, for
/// solo and multiplexed rounds alike.
pub(crate) fn run_shards(
    model: Model,
    feed: &ShardedFeed,
    ctx: &PassCtx,
    slots: &mut [ShardSlot],
    opts: PassOpts,
    policy: ExecPolicy,
) -> Vec<ShardOutcome> {
    feed.begin_pass();
    let work = |sid: usize, slot: &mut ShardSlot| {
        let t0 = Instant::now();
        let mut pass = ShardPass::new(model, slot, ctx, opts);
        pass.feed(feed.shard(sid));
        pass.record_pass_nanos(t0.elapsed().as_nanos() as u64);
        pass.finish()
    };
    if policy.use_threads(slots.len()) {
        std::thread::scope(|scope| {
            let handles: Vec<_> = slots
                .iter_mut()
                .enumerate()
                .map(|(sid, slot)| {
                    let work = &work;
                    scope.spawn(move || work(sid, slot))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    } else {
        slots
            .iter_mut()
            .enumerate()
            .map(|(sid, slot)| work(sid, slot))
            .collect()
    }
}

/// The round loop every non-checkpointed engine runs: ask the algorithm
/// for its next batch, answer it with one logical pass, account the pass
/// in the [`ExecReport`], and sample the arena's heap footprint. `pass`
/// receives the batch by value, the round's pass seed
/// (`split_seed(seed, pass)`), and the 1-based pass number.
pub(crate) fn drive_rounds<A: RoundAdaptive>(
    mut alg: A,
    seed: u64,
    arena: &mut RouterArena,
    mut pass: impl FnMut(Vec<Query>, u64, usize, &mut RouterArena) -> (Vec<Answer>, usize),
) -> (A::Output, ExecReport) {
    let mut report = ExecReport::default();
    arena.begin_run();
    let mut answers: Vec<Answer> = Vec::new();
    loop {
        let batch = alg.next_round(&answers);
        if batch.is_empty() {
            break;
        }
        report.rounds += 1;
        report.passes += 1;
        report.queries += batch.len();
        report.answer_bytes += batch.len() * ANSWER_BYTES;
        let pass_seed = split_seed(seed, report.passes as u64);
        let (a, space) = pass(batch, pass_seed, report.passes, arena);
        report.max_pass_space_bytes = report.max_pass_space_bytes.max(space);
        answers = a;
        arena.note_round();
    }
    arena.end_run();
    (alg.output(), report)
}

/// Answer one round's batch with one **sharded** pass in `model`,
/// byte-identical to the frozen reference executors for every shard
/// count (one included), feed option, and [`ExecPolicy`]. For a fixed
/// reservoir mode a neighbor sampler's vertex lives entirely in one
/// shard, so its offer/draw sequence is unchanged whichever acceptance
/// scheme runs it. The batch is taken by value: with one shard it
/// becomes slot 0's sub-batch without a copy. Returns the merged answers
/// and the measured pass footprint.
pub fn answer_batch_sharded(
    model: Model,
    batch: Vec<Query>,
    feed: &ShardedFeed,
    pass_seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    policy: ExecPolicy,
) -> (Vec<Answer>, usize) {
    let ctx = PassCtx::begin(model, batch, feed, SeedRun::solo(pass_seed, opts), arena);
    let shards = feed.num_shards();
    let outcomes = run_shards(model, feed, &ctx, &mut arena.slots[..shards], opts, policy);
    ctx.finish(model, feed, arena, outcomes)
}

/// Execute a round-adaptive algorithm as a sharded streaming algorithm in
/// `model`: one *logical* pass per round, fanned out over the feed's
/// shards. A single stream is the one-shard feed
/// ([`crate::exec::run_insertion`] / [`crate::exec::run_turnstile`]), so
/// this shard pass is the only code that answers a streaming round.
pub fn run_sharded<A: RoundAdaptive>(
    model: Model,
    alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    policy: ExecPolicy,
) -> (A::Output, ExecReport) {
    drive_rounds(alg, seed, arena, |batch, pass_seed, _, arena| {
        answer_batch_sharded(model, batch, feed, pass_seed, arena, opts, policy)
    })
}

/// [`run_sharded`] in the insertion model. Kept by name because
/// `perfbench/src/traced.rs` calls it.
pub fn run_insertion_sharded_with_exec<A: RoundAdaptive>(
    alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    policy: ExecPolicy,
) -> (A::Output, ExecReport) {
    run_sharded(Model::Insertion, alg, feed, seed, arena, opts, policy)
}

/// [`run_sharded`] in the turnstile model. Kept by name because
/// `perfbench/src/traced.rs` calls it.
pub fn run_turnstile_sharded_with_exec<A: RoundAdaptive>(
    alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    policy: ExecPolicy,
) -> (A::Output, ExecReport) {
    run_sharded(Model::Turnstile, alg, feed, seed, arena, opts, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::answer_batch;
    use sgs_graph::gen;
    use sgs_stream::{InsertionStream, TurnstileStream};

    fn mixed_insertion_batch() -> Vec<Query> {
        let mut qs = vec![Query::EdgeCount, Query::RandomEdge];
        for v in 0..12u32 {
            qs.push(Query::Degree(VertexId(v % 7)));
            qs.push(Query::RandomNeighbor(VertexId(v)));
            qs.push(Query::Adjacent(VertexId(v), VertexId(v + 1)));
            qs.push(Query::IthNeighbor(VertexId(v), (v as u64 % 4) + 1));
            qs.push(Query::RandomEdge);
        }
        qs
    }

    #[test]
    fn sharded_insertion_batch_matches_unsharded_all_shard_counts() {
        // Swept over both reservoir modes: sharding must preserve the
        // exact coin sequence of whichever acceptance scheme is active.
        let g = gen::gnm(25, 90, 17);
        let ins = InsertionStream::from_graph(&g, 18);
        let batch = mixed_insertion_batch();
        for mode in [ReservoirMode::Offer, ReservoirMode::Skip] {
            let opts = PassOpts::with_reservoir(mode);
            for shards in [1usize, 2, 4, 7] {
                let feed = ShardedFeed::partition(&ins, shards);
                let mut arena = RouterArena::new();
                for pass_seed in 0..20u64 {
                    let (a, _) = answer_batch(Model::Insertion, &batch, &ins, pass_seed, opts);
                    let (b, _) = answer_batch_sharded(
                        Model::Insertion,
                        batch.clone(),
                        &feed,
                        pass_seed,
                        &mut arena,
                        opts,
                        ExecPolicy::default(),
                    );
                    assert_eq!(a, b, "{mode:?}, {shards} shards, pass seed {pass_seed}");
                }
            }
        }
    }

    #[test]
    fn sharded_turnstile_batch_matches_unsharded_all_shard_counts() {
        let g = gen::gnm(25, 90, 19);
        let tst = TurnstileStream::from_graph_with_churn(&g, 1.0, 20);
        let mut batch = mixed_insertion_batch();
        batch.retain(|q| !matches!(q, Query::IthNeighbor(..)));
        for shards in [1usize, 2, 4, 7] {
            let feed = ShardedFeed::partition(&tst, shards);
            let mut arena = RouterArena::new();
            for pass_seed in 0..10u64 {
                let (a, _) = answer_batch(
                    Model::Turnstile,
                    &batch,
                    &tst,
                    pass_seed,
                    PassOpts::default(),
                );
                let (b, _) = answer_batch_sharded(
                    Model::Turnstile,
                    batch.clone(),
                    &feed,
                    pass_seed,
                    &mut arena,
                    PassOpts::default(),
                    ExecPolicy::default(),
                );
                assert_eq!(a, b, "{shards} shards, pass seed {pass_seed}");
            }
        }
    }

    #[test]
    fn threaded_path_matches_sequential() {
        // Both execution policies must produce identical answers; the
        // injected ExecPolicy forces each schedule directly (even on
        // single-core hosts), with no process-global env mutation.
        let g = gen::gnm(20, 70, 23);
        let ins = InsertionStream::from_graph(&g, 24);
        let batch = mixed_insertion_batch();
        let (expected, _) = answer_batch(Model::Insertion, &batch, &ins, 5, PassOpts::default());
        let feed = ShardedFeed::partition(&ins, 4);
        let mut arena = RouterArena::new();
        for policy in [ExecPolicy::threaded(), ExecPolicy::serial()] {
            let (got, _) = answer_batch_sharded(
                Model::Insertion,
                batch.clone(),
                &feed,
                5,
                &mut arena,
                PassOpts::default(),
                policy,
            );
            assert_eq!(got, expected, "{policy:?}");
        }
    }

    #[test]
    fn threaded_turnstile_path_matches_sequential() {
        let g = gen::gnm(20, 70, 25);
        let tst = TurnstileStream::from_graph_with_churn(&g, 0.5, 26);
        let mut batch = mixed_insertion_batch();
        batch.retain(|q| !matches!(q, Query::IthNeighbor(..)));
        let (expected, _) = answer_batch(Model::Turnstile, &batch, &tst, 5, PassOpts::default());
        let feed = ShardedFeed::partition(&tst, 4);
        let mut arena = RouterArena::new();
        for policy in [ExecPolicy::threaded(), ExecPolicy::serial()] {
            let (got, _) = answer_batch_sharded(
                Model::Turnstile,
                batch.clone(),
                &feed,
                5,
                &mut arena,
                PassOpts::with_block(64),
                policy,
            );
            assert_eq!(got, expected, "{policy:?}");
        }
    }

    #[test]
    fn logical_passes_track_rounds_not_shards() {
        let g = gen::gnm(18, 60, 29);
        let ins = InsertionStream::from_graph(&g, 30);
        let feed = ShardedFeed::partition(&ins, 5);
        let mut arena = RouterArena::new();
        let batch = mixed_insertion_batch();
        for pass_seed in 0..3u64 {
            let _ = answer_batch_sharded(
                Model::Insertion,
                batch.clone(),
                &feed,
                pass_seed,
                &mut arena,
                PassOpts::default(),
                ExecPolicy::default(),
            );
        }
        assert_eq!(feed.logical_passes(), 3, "5 shards × 3 passes = 3 passes");
    }

    #[test]
    #[should_panic(expected = "IthNeighbor is not available")]
    fn sharded_turnstile_rejects_indexed_neighbors() {
        let g = gen::gnm(5, 5, 1);
        let tst = TurnstileStream::from_graph_with_churn(&g, 0.0, 2);
        let feed = ShardedFeed::partition(&tst, 2);
        let mut arena = RouterArena::new();
        let _ = answer_batch_sharded(
            Model::Turnstile,
            vec![Query::IthNeighbor(VertexId(0), 1)],
            &feed,
            3,
            &mut arena,
            PassOpts::default(),
            ExecPolicy::default(),
        );
    }

    #[test]
    fn empty_stream_answers_defaults() {
        let ins = InsertionStream::from_edge_order(4, vec![]);
        let feed = ShardedFeed::partition(&ins, 3);
        let mut arena = RouterArena::new();
        let batch = vec![
            Query::EdgeCount,
            Query::RandomEdge,
            Query::Degree(VertexId(1)),
            Query::RandomNeighbor(VertexId(2)),
        ];
        let opts = PassOpts::default();
        let (a, _) = answer_batch_sharded(
            Model::Insertion,
            batch.clone(),
            &feed,
            7,
            &mut arena,
            opts,
            ExecPolicy::default(),
        );
        let (b, _) = answer_batch(Model::Insertion, &batch, &ins, 7, opts);
        assert_eq!(a, b);
        assert_eq!(a[0], Answer::EdgeCount(0));
        assert_eq!(a[1], Answer::Edge(None));
    }
}
