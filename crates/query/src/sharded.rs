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
//! **Equivalence, not approximation.** The sharded pass produces answers
//! byte-identical to the single-stream executors (and therefore to the
//! frozen `crate::reference` oracle) for every fixed seed and any shard
//! count, because nothing about a query's answer depends on updates its
//! shard doesn't see:
//!
//! * a shard receives every update incident to a vertex it owns, in
//!   stream order, so degree counts, watcher arrivals, and neighbor
//!   sampler offer sequences are unchanged;
//! * samplers are seeded by their **global** batch slot
//!   (`split_seed(pass_seed, slot)`), the same coins the single-stream
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
use crate::exec::{sort_targets, PassOpts, ANSWER_BYTES};
use crate::policy::ExecPolicy;
use crate::query::{Answer, Query};
use crate::round::RoundAdaptive;
use crate::router::Model;
use sgs_graph::{Edge, VertexId};
use sgs_stream::hash::{split_seed, FastRng};
use sgs_stream::l0::L0Sampler;
use sgs_stream::persist::{frame, read_frame_of, Decoder, Encoder, PersistResult, KIND_PASS_STATE};
use sgs_stream::reservoir::ReservoirBank;
use sgs_stream::sharded::{ShardMap, ShardUpdate, ShardedFeed};
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

/// Split a batch into per-shard sub-batches (vertex/edge-keyed kinds) and
/// the driver-kept global slot lists (`EdgeCount`, `RandomEdge`). Routing
/// goes through the feed's [`ShardMap`] — the same placement (uniform
/// hash plus any load-balancing overrides) the delivery buffers were
/// built with, which is exactly why placement never changes answers.
pub(crate) fn split_batch(batch: &[Query], model: Model, map: &ShardMap, arena: &mut RouterArena) {
    let shards = map.num_shards();
    arena.ensure_shards(shards);
    for slot in &mut arena.slots[..shards] {
        slot.sub_batch.clear();
        slot.slot_map.clear();
    }
    arena.scratch_count.clear();
    arena.scratch_edge.clear();
    for (i, q) in batch.iter().enumerate() {
        let shard = match *q {
            Query::EdgeCount => {
                arena.scratch_count.push(i as u32);
                continue;
            }
            Query::RandomEdge => {
                arena.scratch_edge.push(i as u32);
                continue;
            }
            Query::Degree(v) | Query::RandomNeighbor(v) => map.shard_of(v.0),
            Query::IthNeighbor(v, _) => {
                if model == Model::Turnstile {
                    panic!(
                        "IthNeighbor is not available in the turnstile model \
                         (Definition 10 replaces it with RandomNeighbor)"
                    );
                }
                map.shard_of(v.0)
            }
            // The canonical endpoint's shard sees every update of this
            // edge (it is an endpoint), so it can answer `f4` alone.
            Query::Adjacent(u, v) => map.shard_of(Edge::new(u, v).u().0),
        };
        let slot = &mut arena.slots[shard];
        slot.sub_batch.push(*q);
        slot.slot_map.push(i as u32);
    }
}

/// What every shard pass of one round shares: the driver-side `f1`
/// plan. Built by the pass prologue ([`PassCtx::begin`]) from the
/// arena's pooled scratch, consumed by the epilogue ([`PassCtx::finish`]),
/// which hands the buffers back.
pub(crate) struct PassCtx {
    pub(crate) num_vertices: usize,
    /// Insertion: the round's `f1` position targets `(position, global
    /// slot)`, sorted by position. Empty in the turnstile model.
    pub(crate) targets: Vec<(u64, u32)>,
    /// The round's `RandomEdge` global slots, in batch order. Turnstile
    /// `f1` ℓ₀-banks are seeded by, and answer, these slots.
    pub(crate) f1_slots: Vec<u32>,
}

impl PassCtx {
    /// Take the pooled `f1` buffers out of the arena. [`split_batch`]
    /// must already have filled the `RandomEdge` slot list.
    pub(crate) fn take(arena: &mut RouterArena, feed: &ShardedFeed) -> Self {
        let mut targets = std::mem::take(&mut arena.scratch_targets);
        targets.clear();
        PassCtx {
            num_vertices: feed.num_vertices(),
            targets,
            f1_slots: std::mem::take(&mut arena.scratch_edge),
        }
    }

    /// The pass prologue: split the batch over the feed's shards, then
    /// draw the `f1` position targets (insertion) or keep the `f1` slots
    /// for the ℓ₀-banks (turnstile).
    ///
    /// Targets are drawn centrally from the pass rng in batch order —
    /// the exact coin sequence a single-stream pass consumes — then
    /// sorted by position for cursor matching.
    pub(crate) fn begin(
        model: Model,
        batch: &[Query],
        feed: &ShardedFeed,
        pass_seed: u64,
        arena: &mut RouterArena,
    ) -> Self {
        split_batch(batch, model, feed.shard_map(), arena);
        let mut ctx = PassCtx::take(arena, feed);
        let stream_len = feed.stream_len() as u64;
        if model == Model::Insertion && stream_len > 0 {
            let mut rng = FastRng::seed_from_u64(pass_seed);
            for &slot in &ctx.f1_slots {
                ctx.targets.push((rng.gen_range(0..stream_len), slot));
            }
            sort_targets(&mut ctx.targets, stream_len);
        }
        ctx
    }

    /// The pass epilogue: merge shard-local answers and driver-kept
    /// state into the batch-wide answer vector, merge the per-shard
    /// turnstile `f1` banks (linear sketches: the result is the exact
    /// single-stream sketch state), and return the pooled buffers to the
    /// arena. Returns the answers and the measured pass footprint.
    pub(crate) fn finish(
        self,
        model: Model,
        batch_len: usize,
        feed: &ShardedFeed,
        arena: &mut RouterArena,
        mut outcomes: Vec<ShardOutcome>,
    ) -> (Vec<Answer>, usize) {
        let mut space = outcomes.iter().map(|o| o.space_bytes).sum::<usize>();
        let mut answers = merge_answers(batch_len, feed, arena, outcomes.len(), &outcomes);
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
        arena.scratch_targets = self.targets;
        arena.scratch_edge = self.f1_slots;
        (answers, space)
    }
}

/// One shard's insertion-model pass as a **resumable state machine**:
/// the per-delivery work, decoupled from where deliveries come from.
/// The scoped-thread path feeds it the shard buffer in one call; the
/// broadcast path feeds it ring blocks filtered down to this shard's
/// deliveries as they arrive at the cursor. Delivery *chunking* differs
/// between the two, but chunk boundaries never change an answer (the
/// block-equivalence property), so both paths stay byte-identical to
/// the single-stream executor.
pub(crate) struct InsertionShardPass<'a> {
    slot: &'a mut ShardSlot,
    targets: &'a [(u64, u32)],
    opts: PassOpts,
    reservoirs: ReservoirBank<Edge>,
    edge_hits: Vec<(u32, Edge)>,
    cursor: usize,
    buf: Vec<EdgeUpdate>,
}

impl<'a> InsertionShardPass<'a> {
    /// Rebuild the pooled router and seed the pass state. The
    /// relaxed-f3 reservoir bank is aligned with the shard router's
    /// pooled slots and seeded by *global* batch slot — the
    /// single-stream coins. A neighbor sampler's vertex lives entirely
    /// in this shard, so its offer (and therefore draw) sequence is
    /// exactly the single-stream one in either reservoir mode.
    pub(crate) fn new(
        slot: &'a mut ShardSlot,
        targets: &'a [(u64, u32)],
        pass_seed: u64,
        opts: PassOpts,
    ) -> Self {
        slot.router.rebuild(&slot.sub_batch, Model::Insertion);
        let mut reservoirs: ReservoirBank<Edge> = ReservoirBank::from_seeds(
            slot.router
                .neighbor_slots()
                .iter()
                .map(|&ls| split_seed(pass_seed, slot.slot_map[ls as usize] as u64)),
            opts.reservoir,
        );
        reservoirs.bind_cohorts(slot.router.neighbor_group_ranges());
        InsertionShardPass {
            slot,
            targets,
            opts,
            reservoirs,
            edge_hits: Vec::new(),
            cursor: 0,
            buf: Vec::new(),
        }
    }

    /// Absorb the next run of deliveries (global stream order, possibly
    /// a partial prefix — callable repeatedly).
    pub(crate) fn feed(&mut self, deliveries: &[ShardUpdate]) {
        let block = self.opts.block;
        if block <= 1 {
            for su in deliveries {
                debug_assert!(su.update.is_insert(), "insertion executor fed a deletion");
                let pos = su.position as u64;
                // Skip targets whose position lives in another shard's
                // buffer, then record hits at this global position.
                while self.cursor < self.targets.len() && self.targets[self.cursor].0 < pos {
                    self.cursor += 1;
                }
                while self.cursor < self.targets.len() && self.targets[self.cursor].0 == pos {
                    self.edge_hits
                        .push((self.targets[self.cursor].1, su.update.edge));
                    self.cursor += 1;
                }
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
                    debug_assert!(su.update.is_insert(), "insertion executor fed a deletion");
                    let pos = su.position as u64;
                    while self.cursor < self.targets.len() && self.targets[self.cursor].0 < pos {
                        self.cursor += 1;
                    }
                    while self.cursor < self.targets.len() && self.targets[self.cursor].0 == pos {
                        self.edge_hits
                            .push((self.targets[self.cursor].1, su.update.edge));
                        self.cursor += 1;
                    }
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

    /// Serialize the mutable mid-pass state: the reservoir bank (RNG
    /// words included), the `f1` position hits recorded so far, and the
    /// target cursor. The router, targets, and batch are *not* included
    /// — they are rebuilt deterministically by [`InsertionShardPass::new`]
    /// from the round's batch and pass seed, so a restored pass resumes
    /// byte-identically from the snapshot's delivery boundary.
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
    /// over the same batch, targets, pass seed, and options.
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
    pub(crate) slot: &'a mut ShardSlot,
    opts: PassOpts,
    f1_bank: Vec<L0Sampler>,
    nbr_samplers: Vec<L0Sampler>,
    nbr_verts: Vec<VertexId>,
    buf: Vec<EdgeUpdate>,
    owned_kd: Vec<(u64, i64)>,
}

impl<'a> TurnstileShardPass<'a> {
    /// Rebuild the pooled router and seed the sketch banks, every
    /// sampler by its global batch slot through `lane_seed` (a solo pass
    /// uses `split_seed(pass_seed, slot)`; a multiplexed one, the slot
    /// owner's solo coin). Every shard keeps the full `f1` bank,
    /// identically seeded, and feeds it *owned* deliveries only: merging
    /// the banks across shards reassembles the exact single-stream
    /// sketch state (ℓ₀-samplers are linear).
    pub(crate) fn new(
        slot: &'a mut ShardSlot,
        ctx: &PassCtx,
        lane_seed: impl Fn(u32) -> u64,
        opts: PassOpts,
    ) -> Self {
        slot.router.rebuild(&slot.sub_batch, Model::Turnstile);
        let num_vertices = ctx.num_vertices;
        let f1_bank: Vec<L0Sampler> = ctx
            .f1_slots
            .iter()
            .map(|&gs| L0Sampler::for_edge_domain(num_vertices, lane_seed(gs)))
            .collect();
        let nbr_samplers: Vec<L0Sampler> = slot
            .router
            .neighbor_slots()
            .iter()
            .map(|&ls| {
                L0Sampler::for_edge_domain(num_vertices, lane_seed(slot.slot_map[ls as usize]))
            })
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
    /// over the same batch, `f1` slots, and pass seed.
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

/// What the pass drivers ([`run_shards`], [`crate::broadcast::drive_ring`])
/// need of one shard's pass machine: absorb deliveries in global stream
/// order (possibly a partial prefix — callable repeatedly), note the feed
/// time, and report the outcome at end of stream. [`ShardPass`] is the
/// solo implementation; the multiplexer brings its own.
pub(crate) trait FeedPass {
    /// Absorb the next run of deliveries.
    fn feed(&mut self, deliveries: &[ShardUpdate]);

    /// The arena slot this pass runs over.
    fn slot_mut(&mut self) -> &mut ShardSlot;

    /// End of stream: fill shard-local answers and report the outcome.
    fn finish(self) -> ShardOutcome;

    /// Record this pass's feed duration into its arena slot, for the
    /// arena's per-shard critical-path telemetry.
    fn record_pass_nanos(&mut self, nanos: u64) {
        self.slot_mut().pass_nanos.push(nanos);
    }
}

/// One shard's solo pass state machine for one round, in either stream
/// model: the one type the sharded, ring, runtime and checkpointed
/// engines feed.
pub(crate) enum ShardPass<'a> {
    Insertion(InsertionShardPass<'a>),
    Turnstile(TurnstileShardPass<'a>),
}

impl<'a> ShardPass<'a> {
    /// Build `model`'s pass over `slot` for a solo round: every sampler is
    /// seeded by `split_seed(pass_seed, global slot)`, the single-stream
    /// executors' coins.
    pub(crate) fn new(
        model: Model,
        slot: &'a mut ShardSlot,
        ctx: &'a PassCtx,
        pass_seed: u64,
        opts: PassOpts,
    ) -> Self {
        match model {
            Model::Insertion => {
                ShardPass::Insertion(InsertionShardPass::new(slot, &ctx.targets, pass_seed, opts))
            }
            Model::Turnstile => ShardPass::Turnstile(TurnstileShardPass::new(
                slot,
                ctx,
                |gs| split_seed(pass_seed, gs as u64),
                opts,
            )),
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

impl FeedPass for ShardPass<'_> {
    fn feed(&mut self, deliveries: &[ShardUpdate]) {
        match self {
            ShardPass::Insertion(p) => p.feed(deliveries),
            ShardPass::Turnstile(p) => p.feed(deliveries),
        }
    }

    fn slot_mut(&mut self) -> &mut ShardSlot {
        match self {
            ShardPass::Insertion(p) => p.slot,
            ShardPass::Turnstile(p) => p.slot,
        }
    }

    fn finish(self) -> ShardOutcome {
        match self {
            ShardPass::Insertion(p) => p.finish(),
            ShardPass::Turnstile(p) => p.finish(),
        }
    }
}

/// Run one pass over every shard's private buffer, threaded or inline
/// per the injected [`ExecPolicy`], collecting outcomes in shard order.
/// `make` builds each shard's pass machine; the solo drivers and the
/// multiplexer differ only there.
pub(crate) fn run_shards<'a, P: FeedPass>(
    feed: &ShardedFeed,
    slots: &'a mut [ShardSlot],
    policy: ExecPolicy,
    make: impl Fn(&'a mut ShardSlot) -> P + Sync,
) -> Vec<ShardOutcome> {
    feed.begin_pass();
    let work = |sid: usize, slot: &'a mut ShardSlot| {
        let t0 = Instant::now();
        let mut pass = make(slot);
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

/// Merge shard-local answers and driver-kept state into the batch-wide
/// answer vector.
fn merge_answers(
    batch_len: usize,
    feed: &ShardedFeed,
    arena: &RouterArena,
    shards: usize,
    outcomes: &[ShardOutcome],
) -> Vec<Answer> {
    let mut answers = vec![Answer::Edge(None); batch_len];
    let m = feed.final_edge_count().max(0) as usize;
    for &s in &arena.scratch_count {
        answers[s as usize] = Answer::EdgeCount(m);
    }
    for slot in &arena.slots[..shards] {
        for (local, &global) in slot.slot_map.iter().enumerate() {
            answers[global as usize] = slot.answers[local];
        }
    }
    for o in outcomes {
        for &(slot, e) in &o.edge_hits {
            answers[slot as usize] = Answer::Edge(Some(e));
        }
    }
    answers
}

/// The round loop every non-checkpointed engine runs: ask the algorithm
/// for its next batch, answer it with one logical pass, account the pass
/// in the [`ExecReport`], and sample the arena's heap footprint. `pass`
/// receives the batch, the round's pass seed (`split_seed(seed, pass)`),
/// and the 1-based pass number.
pub(crate) fn drive_rounds<A: RoundAdaptive>(
    mut alg: A,
    seed: u64,
    arena: &mut RouterArena,
    mut pass: impl FnMut(&[Query], u64, usize, &mut RouterArena) -> (Vec<Answer>, usize),
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
        let (a, space) = pass(&batch, pass_seed, report.passes, arena);
        report.max_pass_space_bytes = report.max_pass_space_bytes.max(space);
        answers = a;
        arena.note_round();
    }
    arena.end_run();
    (alg.output(), report)
}

/// Answer one round's batch with one **sharded** pass in `model`: the
/// N-shard generalization of [`crate::exec::answer_batch`], byte-identical
/// to it (and to the reference executors) for every shard count, feed
/// option, and [`ExecPolicy`]. For a fixed reservoir mode a neighbor
/// sampler's vertex lives entirely in one shard, so its offer/draw
/// sequence is unchanged whichever acceptance scheme runs it. Returns the
/// merged answers and the measured pass footprint.
pub fn answer_batch_sharded(
    model: Model,
    batch: &[Query],
    feed: &ShardedFeed,
    pass_seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    policy: ExecPolicy,
) -> (Vec<Answer>, usize) {
    if feed.num_shards() == 1 {
        // Single shard: skip the split/scatter machinery and run the
        // direct pass emulation over the feed (its `EdgeStream` replay
        // reconstructs the source order and counts the logical pass) —
        // single-stream callers keep the direct per-pass cost.
        arena.ensure_shards(1);
        let t0 = Instant::now();
        let out = crate::exec::answer_batch(model, batch, feed, pass_seed, opts);
        arena.slots[0]
            .pass_nanos
            .push(t0.elapsed().as_nanos() as u64);
        return out;
    }
    let ctx = PassCtx::begin(model, batch, feed, pass_seed, arena);
    let shards = feed.num_shards();
    let outcomes = run_shards(feed, &mut arena.slots[..shards], policy, |slot| {
        ShardPass::new(model, slot, &ctx, pass_seed, opts)
    });
    ctx.finish(model, batch.len(), feed, arena, outcomes)
}

/// Execute a round-adaptive algorithm as a sharded streaming algorithm in
/// `model`: one *logical* pass per round, fanned out over the feed's
/// shards. With one shard this **is** the single-stream executor
/// ([`crate::exec::run_insertion`] / [`crate::exec::run_turnstile`]).
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
    use sgs_stream::reservoir::ReservoirMode;
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
                        &batch,
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
                    &batch,
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
                &batch,
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
                &batch,
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
                &batch,
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
            &[Query::IthNeighbor(VertexId(0), 1)],
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
            &batch,
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
