//! Multiplexer equivalence: every query in a shared-pass `QuerySet` run
//! must answer **byte-identically** to its solo run.
//!
//! The sweep covers shards 1/2/4 × mixed triangle+5-cycle query sets ×
//! insertion+turnstile models × blocked/scalar feed paths × reservoir
//! offer+skip modes. Solo runs go through the sharded executors, which
//! `tests/sharded_equivalence.rs` pins to the frozen reference chain —
//! so in offer mode the multiplexed answers are transitively pinned to
//! the pre-router reference executors (the frozen-reference chain), and
//! in skip mode to the solo skip-ahead coin sequence.
//!
//! Also asserted: N jobs sharing rounds cost `max_j rounds_j` logical
//! passes (the whole point), per-job `ExecReport` pass/round/query
//! counters match solo exactly, and the ring engine reproduces the
//! sharded engine.

use sgs_core::fgp::{estimate_multi, estimate_multi_broadcast, estimate_on_feed};
use sgs_core::{QuerySpec, SamplerMode};
use sgs_query::{BroadcastOpts, ExecPolicy, Model, PassOpts, ReservoirMode, RouterArena};
use sgs_stream::{InsertionStream, ShardedFeed, TurnstileStream};
use subgraph_streams::prelude::*;

const SHARD_SWEEP: [usize; 3] = [1, 2, 4];

/// A mixed admission batch: two patterns, different trial counts, seeds,
/// sampler modes, and both reservoir acceptance schemes.
fn mixed_specs() -> Vec<QuerySpec> {
    vec![
        QuerySpec {
            pattern: Pattern::triangle(),
            trials: 60,
            seed: 101,
            sampler: SamplerMode::Indexed,
            reservoir: ReservoirMode::Offer,
        },
        QuerySpec {
            pattern: Pattern::cycle(5),
            trials: 35,
            seed: 202,
            sampler: SamplerMode::Relaxed,
            reservoir: ReservoirMode::Skip,
        },
        QuerySpec {
            pattern: Pattern::triangle(),
            trials: 20,
            seed: 303,
            sampler: SamplerMode::Relaxed,
            reservoir: ReservoirMode::Offer,
        },
        QuerySpec {
            pattern: Pattern::cycle(5),
            trials: 15,
            seed: 404,
            sampler: SamplerMode::Relaxed,
            reservoir: ReservoirMode::Skip,
        },
    ]
}

fn assert_estimates_equal(a: &sgs_core::CountEstimate, b: &sgs_core::CountEstimate, ctx: &str) {
    assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "estimate {ctx}");
    assert_eq!(a.hits, b.hits, "hits {ctx}");
    assert_eq!(a.trials, b.trials, "trials {ctx}");
    assert_eq!(a.m, b.m, "m {ctx}");
}

#[test]
fn insertion_mux_matches_solo_across_shards_and_blocks() {
    let g = sgs_graph::gen::gnm(48, 220, 42);
    let ins = InsertionStream::from_graph(&g, 7);
    let specs = mixed_specs();
    for &shards in &SHARD_SWEEP {
        let feed = ShardedFeed::partition(&ins, shards);
        for &block in &[0usize, 128] {
            let mut arena = RouterArena::new();
            let (ests, admission) = estimate_multi(
                &specs,
                Model::Insertion,
                &feed,
                &mut arena,
                PassOpts::with_block(block),
                ExecPolicy::serial(),
            )
            .unwrap();
            // Every sampler is 3-round: 4 jobs share exactly 3 passes.
            assert_eq!(admission.rounds.len(), 3, "{shards} shards, block {block}");
            assert_eq!(feed.logical_passes() % 3, 0);
            for (j, spec) in specs.iter().enumerate() {
                let mut solo_arena = RouterArena::new();
                let solo = estimate_on_feed(
                    spec,
                    Model::Insertion,
                    &feed,
                    &mut solo_arena,
                    PassOpts::with_block(block),
                    ExecPolicy::serial(),
                )
                .unwrap();
                let ctx = format!("job {j}, {shards} shards, block {block}");
                assert_estimates_equal(&ests[j], &solo, &ctx);
                assert_eq!(ests[j].report.passes, solo.report.passes, "{ctx}");
                assert_eq!(ests[j].report.rounds, solo.report.rounds, "{ctx}");
                assert_eq!(ests[j].report.queries, solo.report.queries, "{ctx}");
            }
        }
    }
}

#[test]
fn turnstile_mux_matches_solo_across_shards_and_blocks() {
    let g = sgs_graph::gen::gnm(48, 220, 43);
    let tst = TurnstileStream::from_graph_with_churn(&g, 0.5, 44);
    let specs = mixed_specs();
    for &shards in &SHARD_SWEEP {
        let feed = ShardedFeed::partition(&tst, shards);
        for &block in &[0usize, 128] {
            let mut arena = RouterArena::new();
            let (ests, admission) = estimate_multi(
                &specs,
                Model::Turnstile,
                &feed,
                &mut arena,
                PassOpts::with_block(block),
                ExecPolicy::serial(),
            )
            .unwrap();
            assert_eq!(admission.rounds.len(), 3);
            for (j, spec) in specs.iter().enumerate() {
                let mut solo_arena = RouterArena::new();
                let solo = estimate_on_feed(
                    spec,
                    Model::Turnstile,
                    &feed,
                    &mut solo_arena,
                    PassOpts::with_block(block),
                    ExecPolicy::serial(),
                )
                .unwrap();
                let ctx = format!("job {j}, {shards} shards, block {block}");
                assert_estimates_equal(&ests[j], &solo, &ctx);
            }
        }
    }
}

#[test]
fn threaded_policy_is_byte_identical_to_serial() {
    let g = sgs_graph::gen::gnm(48, 220, 45);
    let ins = InsertionStream::from_graph(&g, 46);
    let feed = ShardedFeed::partition(&ins, 4);
    let specs = mixed_specs();
    let mut arena = RouterArena::new();
    let (serial, _) = estimate_multi(
        &specs,
        Model::Insertion,
        &feed,
        &mut arena,
        PassOpts::with_block(128),
        ExecPolicy::serial(),
    )
    .unwrap();
    let mut arena2 = RouterArena::new();
    let (threaded, _) = estimate_multi(
        &specs,
        Model::Insertion,
        &feed,
        &mut arena2,
        PassOpts::with_block(128),
        ExecPolicy::threaded(),
    )
    .unwrap();
    for (j, (a, b)) in serial.iter().zip(&threaded).enumerate() {
        assert_estimates_equal(a, b, &format!("job {j}"));
    }
}

#[test]
fn ring_engine_matches_sharded_engine() {
    let g = sgs_graph::gen::gnm(48, 220, 47);
    let ins = InsertionStream::from_graph(&g, 48);
    let specs = mixed_specs();
    for &shards in &SHARD_SWEEP {
        let feed = ShardedFeed::partition(&ins, shards);
        let mut arena = RouterArena::new();
        let (sharded, _) = estimate_multi(
            &specs,
            Model::Insertion,
            &feed,
            &mut arena,
            PassOpts::with_block(64),
            ExecPolicy::serial(),
        )
        .unwrap();
        for policy in [ExecPolicy::serial(), ExecPolicy::threaded()] {
            let mut ring_arena = RouterArena::new();
            let (ringed, _) = estimate_multi_broadcast(
                &specs,
                Model::Insertion,
                &feed,
                &mut ring_arena,
                PassOpts::with_block(64),
                BroadcastOpts::with_policy(policy),
            )
            .unwrap();
            for (j, (a, b)) in sharded.iter().zip(&ringed).enumerate() {
                assert_estimates_equal(a, b, &format!("job {j}, {shards} shards, {policy:?}"));
            }
        }
    }
}

#[test]
fn arena_reuse_across_mux_runs_is_stable() {
    let g = sgs_graph::gen::gnm(48, 220, 49);
    let ins = InsertionStream::from_graph(&g, 50);
    let feed = ShardedFeed::partition(&ins, 2);
    let specs = mixed_specs();
    let mut arena = RouterArena::new();
    let (first, _) = estimate_multi(
        &specs,
        Model::Insertion,
        &feed,
        &mut arena,
        PassOpts::with_block(64),
        ExecPolicy::serial(),
    )
    .unwrap();
    let (second, _) = estimate_multi(
        &specs,
        Model::Insertion,
        &feed,
        &mut arena,
        PassOpts::with_block(64),
        ExecPolicy::serial(),
    )
    .unwrap();
    for (j, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_estimates_equal(a, b, &format!("warm-arena job {j}"));
    }
    assert_eq!(
        arena.growth_events_after_warmup(),
        0,
        "warm mux runs must not grow the arena"
    );
}
