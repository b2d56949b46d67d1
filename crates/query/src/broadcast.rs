//! Broadcast pass execution: one ingest feeds every consumer at once.
//!
//! The sharded executors in [`crate::sharded`] give each shard worker a
//! private replay of its buffer. This module routes the same per-shard
//! pass state machines through a bounded [`Broadcast`] ring instead: **one producer** pushes
//! the feed's routed buffer in blocks, and every consumer — the N shard
//! routers *plus* any number of side consumers (baselines, exact
//! oracles, pass counters) — walks the blocks through its own cursor.
//!
//! **Equivalence.** A shard consumer reconstructs exactly its scoped
//! buffer from the ring: every [`RoutedUpdate`] carries the owner/other
//! shard ids cached at partition (buffer-fill) time, so
//! `delivery_for(shard)` yields the same `ShardUpdate` sequence —
//! positions, owned flags, order — that `ShardedFeed::shard(i)` stores,
//! with zero hash recomputes at the cursor. Delivery chunking differs
//! (ring blocks vs one big slice) but chunk boundaries never change an
//! answer, so broadcast answers are **byte-identical** to the sharded
//! (and therefore frozen-reference) answers
//! for every seed, shard count, feed block size, and reservoir mode —
//! `tests/broadcast_equivalence.rs` pins all of it.
//!
//! **Pass accounting.** One broadcast session is one logical pass on the
//! feed, however many consumers ride it (side consumers included: that
//! is the whole point — the TRIÈST baseline, the exact oracle, and a
//! raw counter ride the estimator's first pass instead of replaying the
//! stream privately). Consumer loss does not change the count.
//!
//! **Scheduling.** When the injected [`ExecPolicy`] says to thread
//! (default: more than one core) the producer, shard workers, and side
//! consumers run on scoped threads against the blocking ring API;
//! otherwise a deterministic cooperative round-robin drives the same
//! ring through the try-APIs. The round-loop executor [`run_broadcast`]
//! additionally keeps a persistent [`ShardRuntime`] pool under the
//! threaded policy, feeding the *same* workers pass after
//! pass instead of respawning scoped threads per round. All schedules
//! produce identical answers — every consumer sees the whole stream in
//! order either way.

use crate::accounting::ExecReport;
use crate::arena::RouterArena;
use crate::exec::PassOpts;
use crate::policy::ExecPolicy;
use crate::query::{Answer, Query};
use crate::round::RoundAdaptive;
use crate::router::Model;
use crate::runtime::ShardRuntime;
use crate::sharded::{drive_rounds, PassCtx, SeedRun, ShardOutcome, ShardPass};
use sgs_stream::broadcast::{Broadcast, BroadcastConsumer, RoutedProducer, TryNext};
use sgs_stream::sharded::{RoutedUpdate, ShardUpdate, ShardedFeed};
use std::time::Instant;

/// A side consumer of one broadcast pass: fed every ring block (the
/// whole routed stream, in order), independent of shard routing. The
/// executor layer does not interpret these — `sgs-core` plugs in the
/// TRIÈST baseline, the exact-oracle graph builder, and raw counters.
pub type SideSink<'a> = Box<dyn FnMut(&[RoutedUpdate]) + Send + 'a>;

/// Ring geometry and scheduling policy for a broadcast pass.
#[derive(Clone, Copy, Debug)]
pub struct BroadcastOpts {
    /// In-flight ring blocks (backpressure bound).
    pub ring_capacity: usize,
    /// Updates per ring block (transport granularity; answers are
    /// identical for any value).
    pub ring_block: usize,
    /// Injected thread/pinning policy (answers are identical under
    /// every policy).
    pub policy: ExecPolicy,
}

impl Default for BroadcastOpts {
    fn default() -> Self {
        BroadcastOpts {
            ring_capacity: sgs_stream::broadcast::DEFAULT_RING_CAPACITY,
            ring_block: sgs_stream::broadcast::DEFAULT_RING_BLOCK,
            policy: ExecPolicy::default(),
        }
    }
}

impl BroadcastOpts {
    /// Default geometry under an explicit [`ExecPolicy`].
    pub fn with_policy(policy: ExecPolicy) -> Self {
        BroadcastOpts {
            policy,
            ..BroadcastOpts::default()
        }
    }
}

/// Filter one ring block down to shard `sid`'s deliveries — the cached
/// owner/other fields make this two compares per update, no hashing.
pub(crate) fn filter_block(block: &[RoutedUpdate], sid: usize, scratch: &mut Vec<ShardUpdate>) {
    scratch.clear();
    for r in block {
        if let Some(su) = r.delivery_for(sid) {
            scratch.push(su);
        }
    }
}

/// Drive one broadcast pass: producer + per-shard pass machines + side
/// sinks over `ring` — threaded (blocking API, scoped threads) or
/// cooperative (try-API round-robin on this thread). Identical answers
/// either way; shard order is preserved in the returned outcomes.
///
/// Per-shard feed durations land in the arena slots just like the
/// scoped-thread path records them (so `RouterArena::shard_pass_nanos`
/// keeps working on the serving path), with one caveat: under the
/// threaded schedule a shard's figure is its drain wall time (ring
/// waits included), under the cooperative schedule only its own
/// processing segments.
pub(crate) fn drive_ring(
    feed: &ShardedFeed,
    ring: &Broadcast,
    passes: Vec<ShardPass<'_>>,
    bcast: BroadcastOpts,
    side: &mut [SideSink<'_>],
) -> Vec<ShardOutcome> {
    let shards = passes.len();
    let shard_consumers: Vec<BroadcastConsumer> = (0..shards).map(|_| ring.subscribe()).collect();
    let side_consumers: Vec<BroadcastConsumer> = side.iter().map(|_| ring.subscribe()).collect();
    let producer = RoutedProducer::new(feed, bcast.ring_block);
    // The producer is one extra party, so thread policy is decided by
    // the consumer count (>= 2 parties always; the injected policy rules).
    if bcast.policy.use_threads((shards + side.len()).max(2)) {
        std::thread::scope(|scope| {
            scope.spawn(move || producer.run(ring));
            let side_handles: Vec<_> = side
                .iter_mut()
                .zip(side_consumers)
                .map(|(sink, consumer)| {
                    scope.spawn(move || {
                        for block in consumer {
                            sink(&block);
                        }
                    })
                })
                .collect();
            let shard_handles: Vec<_> = passes
                .into_iter()
                .zip(shard_consumers)
                .enumerate()
                .map(|(sid, (mut pass, consumer))| {
                    scope.spawn(move || {
                        let t0 = Instant::now();
                        let mut scratch: Vec<ShardUpdate> = Vec::new();
                        for block in consumer {
                            filter_block(&block, sid, &mut scratch);
                            pass.feed(&scratch);
                        }
                        pass.record_pass_nanos(t0.elapsed().as_nanos() as u64);
                        pass.finish()
                    })
                })
                .collect();
            for h in side_handles {
                h.join().unwrap();
            }
            shard_handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        })
    } else {
        let mut producer = producer;
        let mut workers: Vec<(ShardPass<'_>, BroadcastConsumer, bool, u64)> = passes
            .into_iter()
            .zip(shard_consumers)
            .map(|(p, c)| (p, c, false, 0u64))
            .collect();
        let mut side_workers: Vec<(&mut SideSink<'_>, BroadcastConsumer, bool)> = side
            .iter_mut()
            .zip(side_consumers)
            .map(|(s, c)| (s, c, false))
            .collect();
        let mut scratch: Vec<ShardUpdate> = Vec::new();
        loop {
            let produced = producer.pump(ring);
            let mut all_ended = true;
            for (sid, (pass, c, ended, nanos)) in workers.iter_mut().enumerate() {
                let t0 = Instant::now();
                while !*ended {
                    match c.try_next() {
                        TryNext::Block(b) => {
                            filter_block(&b, sid, &mut scratch);
                            pass.feed(&scratch);
                        }
                        TryNext::Pending => break,
                        TryNext::Ended => *ended = true,
                    }
                }
                *nanos += t0.elapsed().as_nanos() as u64;
                all_ended &= *ended;
            }
            for (sink, c, ended) in side_workers.iter_mut() {
                while !*ended {
                    match c.try_next() {
                        TryNext::Block(b) => sink(&b),
                        TryNext::Pending => break,
                        TryNext::Ended => *ended = true,
                    }
                }
                all_ended &= *ended;
            }
            if produced && all_ended {
                break;
            }
        }
        workers
            .into_iter()
            .map(|(mut p, _, _, nanos)| {
                p.record_pass_nanos(nanos);
                p.finish()
            })
            .collect()
    }
}

/// Answer one round's batch with one **broadcast** pass in `model`: the
/// fan-out generalization of [`crate::sharded::answer_batch_sharded`],
/// byte-identical to it (and to the reference executors) for every
/// shard count, with optional side consumers riding the same ingest.
#[allow(clippy::too_many_arguments)]
pub fn answer_batch_broadcast(
    model: Model,
    batch: Vec<Query>,
    feed: &ShardedFeed,
    pass_seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    bcast: BroadcastOpts,
    side: &mut [SideSink<'_>],
) -> (Vec<Answer>, usize) {
    let shards = feed.num_shards();
    let ctx = PassCtx::begin(model, batch, feed, SeedRun::solo(pass_seed, opts), arena);
    let passes: Vec<ShardPass<'_>> = arena.slots[..shards]
        .iter_mut()
        .map(|slot| ShardPass::new(model, slot, &ctx, opts))
        .collect();
    let ring = Broadcast::new(bcast.ring_capacity);
    let outcomes = drive_ring(feed, &ring, passes, bcast, side);
    ctx.finish(model, feed, arena, outcomes)
}

/// Execute a round-adaptive algorithm over broadcast passes in `model`:
/// one ring session per round. Side consumers ride the **first** pass
/// only (they are single-pass algorithms and must see the stream exactly
/// once — the same one replay their single-stream counterparts get).
///
/// `runtime` is a caller-owned persistent [`ShardRuntime`] — the serving
/// path, where one long-lived worker pool answers every query; its shard
/// count must match the feed's. Without one, a threaded policy stands up
/// a pool for this run only, so the rounds still reuse the same workers
/// instead of respawning scoped threads per pass. Answers are identical
/// either way.
#[allow(clippy::too_many_arguments)]
pub fn run_broadcast<A: RoundAdaptive>(
    model: Model,
    alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    bcast: BroadcastOpts,
    side: &mut [SideSink<'_>],
    runtime: Option<&mut ShardRuntime>,
) -> (A::Output, ExecReport) {
    let shards = feed.num_shards();
    let mut owned = (runtime.is_none() && bcast.policy.use_threads((shards + side.len()).max(2)))
        .then(|| ShardRuntime::new(shards, bcast.policy));
    let mut runtime = runtime.or(owned.as_mut());
    if let Some(rt) = &runtime {
        assert_eq!(
            rt.shards(),
            shards,
            "runtime pool and feed must agree on the shard count"
        );
    }
    drive_rounds(alg, seed, arena, |batch, pass_seed, pass, arena| {
        let side_now: &mut [SideSink<'_>] = if pass == 1 { &mut *side } else { &mut [] };
        match runtime.as_deref_mut() {
            Some(rt) => rt.pass(model, batch, feed, pass_seed, arena, opts, bcast, side_now),
            None => {
                answer_batch_broadcast(model, batch, feed, pass_seed, arena, opts, bcast, side_now)
            }
        }
    })
}

/// [`run_broadcast`] in the insertion model on a caller-owned runtime.
/// Kept by name because `perfbench/src/traced.rs` calls it.
#[allow(clippy::too_many_arguments)]
pub fn run_insertion_broadcast_on_runtime<A: RoundAdaptive>(
    alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    bcast: BroadcastOpts,
    side: &mut [SideSink<'_>],
    runtime: &mut ShardRuntime,
) -> (A::Output, ExecReport) {
    run_broadcast(
        Model::Insertion,
        alg,
        feed,
        seed,
        arena,
        opts,
        bcast,
        side,
        Some(runtime),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::answer_batch;
    use sgs_graph::{gen, VertexId};
    use sgs_stream::{InsertionStream, TurnstileStream};

    fn opts() -> PassOpts {
        PassOpts::default()
    }

    /// One default-option broadcast pass with no side consumers.
    fn broadcast(
        model: Model,
        batch: &[Query],
        feed: &ShardedFeed,
        pass_seed: u64,
        arena: &mut RouterArena,
    ) -> (Vec<Answer>, usize) {
        let bcast = BroadcastOpts::default();
        answer_batch_broadcast(
            model,
            batch.to_vec(),
            feed,
            pass_seed,
            arena,
            opts(),
            bcast,
            &mut [],
        )
    }

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
    fn broadcast_insertion_batch_matches_unsharded_all_shard_counts() {
        let g = gen::gnm(25, 90, 117);
        let ins = InsertionStream::from_graph(&g, 118);
        let batch = mixed_insertion_batch();
        for shards in [1usize, 2, 4] {
            let feed = ShardedFeed::partition(&ins, shards);
            let mut arena = RouterArena::new();
            for pass_seed in 0..8u64 {
                let (a, _) = answer_batch(Model::Insertion, &batch, &ins, pass_seed, opts());
                let (b, _) = broadcast(Model::Insertion, &batch, &feed, pass_seed, &mut arena);
                assert_eq!(a, b, "{shards} shards, pass seed {pass_seed}");
            }
        }
    }

    #[test]
    fn broadcast_turnstile_batch_matches_unsharded_all_shard_counts() {
        let g = gen::gnm(25, 90, 119);
        let tst = TurnstileStream::from_graph_with_churn(&g, 1.0, 120);
        let mut batch = mixed_insertion_batch();
        batch.retain(|q| !matches!(q, Query::IthNeighbor(..)));
        for shards in [1usize, 2, 4] {
            let feed = ShardedFeed::partition(&tst, shards);
            let mut arena = RouterArena::new();
            for pass_seed in 0..5u64 {
                let (a, _) = answer_batch(Model::Turnstile, &batch, &tst, pass_seed, opts());
                let (b, _) = broadcast(Model::Turnstile, &batch, &feed, pass_seed, &mut arena);
                assert_eq!(a, b, "{shards} shards, pass seed {pass_seed}");
            }
        }
    }

    #[test]
    fn threaded_and_cooperative_schedules_agree() {
        // Both ring schedules (blocking threads vs cooperative
        // round-robin) must produce identical answers; the injected
        // ExecPolicy forces each one directly — no env mutation.
        let g = gen::gnm(20, 70, 123);
        let ins = InsertionStream::from_graph(&g, 124);
        let batch = mixed_insertion_batch();
        let (expected, _) = answer_batch(Model::Insertion, &batch, &ins, 5, opts());
        let feed = ShardedFeed::partition(&ins, 3);
        let mut arena = RouterArena::new();
        for policy in [ExecPolicy::threaded(), ExecPolicy::serial()] {
            let (got, _) = answer_batch_broadcast(
                Model::Insertion,
                batch.clone(),
                &feed,
                5,
                &mut arena,
                PassOpts::default(),
                BroadcastOpts::with_policy(policy),
                &mut [],
            );
            assert_eq!(got, expected, "{policy:?}");
        }
    }

    #[test]
    fn side_sinks_see_the_whole_stream_once_and_answers_are_unchanged() {
        let g = gen::gnm(22, 80, 125);
        let ins = InsertionStream::from_graph(&g, 126);
        let batch = mixed_insertion_batch();
        let feed = ShardedFeed::partition(&ins, 2);
        let mut arena = RouterArena::new();
        let (expected, _) = answer_batch(Model::Insertion, &batch, &ins, 9, opts());
        let mut seen: Vec<RoutedUpdate> = Vec::new();
        let mut count = 0u64;
        {
            let mut sinks: Vec<SideSink<'_>> = vec![
                Box::new(|b: &[RoutedUpdate]| seen.extend_from_slice(b)),
                Box::new(|b: &[RoutedUpdate]| count += b.len() as u64),
            ];
            let (got, _) = answer_batch_broadcast(
                Model::Insertion,
                batch.clone(),
                &feed,
                9,
                &mut arena,
                PassOpts::default(),
                BroadcastOpts::default(),
                &mut sinks,
            );
            assert_eq!(got, expected);
        }
        assert_eq!(seen, feed.routed());
        assert_eq!(count, feed.stream_len() as u64);
    }

    #[test]
    fn run_broadcast_counts_one_logical_pass_per_round_and_feeds_sides_once() {
        // A 2-round protocol: sides must see exactly one stream copy
        // (pass 1), and the feed must count one logical pass per round.
        struct TwoRounds {
            round: usize,
        }
        impl RoundAdaptive for TwoRounds {
            type Output = ();
            fn next_round(&mut self, _a: &[Answer]) -> Vec<Query> {
                self.round += 1;
                if self.round <= 2 {
                    vec![Query::EdgeCount]
                } else {
                    Vec::new()
                }
            }
            fn output(&mut self) {}
        }
        let g = gen::gnm(18, 60, 127);
        let ins = InsertionStream::from_graph(&g, 128);
        let feed = ShardedFeed::partition(&ins, 2);
        let mut arena = RouterArena::new();
        let mut sides_updates = 0u64;
        {
            let mut sinks: Vec<SideSink<'_>> = vec![Box::new(|b: &[RoutedUpdate]| {
                sides_updates += b.len() as u64
            })];
            let (_, report) = run_broadcast(
                Model::Insertion,
                TwoRounds { round: 0 },
                &feed,
                7,
                &mut arena,
                opts(),
                BroadcastOpts::default(),
                &mut sinks,
                None,
            );
            assert_eq!(report.rounds, 2);
            assert_eq!(report.passes, 2);
        }
        assert_eq!(feed.logical_passes(), 2, "one logical pass per round");
        assert_eq!(
            sides_updates,
            feed.stream_len() as u64,
            "side consumers ride the first pass only"
        );
    }

    #[test]
    fn zero_shard_side_only_ring_is_fine_with_empty_stream() {
        // Degenerate but legal: an empty stream broadcast to consumers.
        let ins = InsertionStream::from_edge_order(4, vec![]);
        let feed = ShardedFeed::partition(&ins, 2);
        let mut arena = RouterArena::new();
        let batch = vec![Query::EdgeCount, Query::RandomEdge];
        let (a, _) = broadcast(Model::Insertion, &batch, &feed, 3, &mut arena);
        assert_eq!(a[0], Answer::EdgeCount(0));
        assert_eq!(a[1], Answer::Edge(None));
    }
}
