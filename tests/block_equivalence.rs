//! Block-boundary equivalence: the blocked feed path vs the scalar
//! per-update path, at every awkward block geometry.
//!
//! The block-oriented rework (SoA ℓ₀ lane loops, batched FlatIndex
//! probes, `QueryRouter::feed_block`) claims *byte-identical* answers
//! for every block size. The frozen-reference suites pin the default
//! block; this suite sweeps the geometry corners where blocking bugs
//! live: remainder blocks (stream length not divisible by the block
//! size), blocks larger than the stream, single-update streams, empty
//! streams, empty batches — in both stream models, unsharded and at
//! shard counts 1, 2, 4.

use sgs_core::QuerySpec;
use sgs_query::exec::answer_batch;
use sgs_query::sharded::answer_batch_sharded;
use sgs_query::{ExecPolicy, Model, PassOpts, Query, RouterArena};
use sgs_stream::{EdgeStream, InsertionStream, ShardedFeed, TurnstileStream};
use subgraph_streams::prelude::*;

const SHARD_SWEEP: [usize; 3] = [1, 2, 4];

/// Block sizes chosen so `stream_len % block` hits 0, 1, and awkward
/// remainders, plus blocks larger than the whole stream.
fn block_sweep(stream_len: usize) -> Vec<usize> {
    let mut blocks = vec![2, 3, 7, 16, 64, 128];
    if stream_len > 1 {
        blocks.push(stream_len - 1); // remainder of exactly 1
        blocks.push(stream_len); // one full block, no remainder
    }
    blocks.push(stream_len + 5); // single under-full block
    blocks
}

fn mixed_batch(indexed: bool) -> Vec<Query> {
    let mut qs = vec![Query::EdgeCount, Query::RandomEdge];
    for v in 0..12u32 {
        qs.push(Query::Degree(VertexId(v % 7)));
        qs.push(Query::RandomNeighbor(VertexId(v)));
        qs.push(Query::Adjacent(VertexId(v), VertexId(v + 1)));
        if indexed {
            qs.push(Query::IthNeighbor(VertexId(v), (v as u64 % 4) + 1));
        }
        qs.push(Query::RandomEdge);
    }
    qs
}

#[test]
fn insertion_blocked_matches_scalar_at_every_block_size() {
    let g = sgs_graph::gen::gnm(25, 91, 17); // odd stream length
    let ins = InsertionStream::from_graph(&g, 18);
    let batch = mixed_batch(true);
    for pass_seed in 0..5u64 {
        let (scalar, scalar_space) = answer_batch(
            Model::Insertion,
            &batch,
            &ins,
            pass_seed,
            PassOpts::with_block(0),
        );
        for block in block_sweep(ins.len()) {
            let (blocked, space) = answer_batch(
                Model::Insertion,
                &batch,
                &ins,
                pass_seed,
                PassOpts::with_block(block),
            );
            assert_eq!(blocked, scalar, "block {block}, seed {pass_seed}");
            assert_eq!(space, scalar_space, "block {block} changed measured space");
        }
    }
}

#[test]
fn turnstile_blocked_matches_scalar_at_every_block_size() {
    let g = sgs_graph::gen::gnm(22, 83, 19);
    let tst = TurnstileStream::from_graph_with_churn(&g, 1.0, 20);
    let batch = mixed_batch(false);
    for pass_seed in 0..3u64 {
        let (scalar, _) = answer_batch(
            Model::Turnstile,
            &batch,
            &tst,
            pass_seed,
            PassOpts::with_block(0),
        );
        for block in block_sweep(tst.len()) {
            let (blocked, _) = answer_batch(
                Model::Turnstile,
                &batch,
                &tst,
                pass_seed,
                PassOpts::with_block(block),
            );
            assert_eq!(blocked, scalar, "block {block}, seed {pass_seed}");
        }
    }
}

#[test]
fn sharded_blocked_matches_scalar_across_shards_and_blocks() {
    let g = sgs_graph::gen::gnm(25, 90, 23);
    let ins = InsertionStream::from_graph(&g, 24);
    let tst = TurnstileStream::from_graph_with_churn(&g, 0.8, 25);
    let ins_batch = mixed_batch(true);
    let tst_batch = mixed_batch(false);
    for &shards in &SHARD_SWEEP {
        let ins_feed = ShardedFeed::partition(&ins, shards);
        let tst_feed = ShardedFeed::partition(&tst, shards);
        let mut arena = RouterArena::new();
        for pass_seed in 0..3u64 {
            let (ins_scalar, _) = answer_batch_sharded(
                Model::Insertion,
                ins_batch.clone(),
                &ins_feed,
                pass_seed,
                &mut arena,
                PassOpts::with_block(0),
                ExecPolicy::default(),
            );
            let (tst_scalar, _) = answer_batch_sharded(
                Model::Turnstile,
                tst_batch.clone(),
                &tst_feed,
                pass_seed,
                &mut arena,
                PassOpts::with_block(0),
                ExecPolicy::default(),
            );
            for block in [3usize, 16, 64, 512] {
                let (a, _) = answer_batch_sharded(
                    Model::Insertion,
                    ins_batch.clone(),
                    &ins_feed,
                    pass_seed,
                    &mut arena,
                    PassOpts::with_block(block),
                    ExecPolicy::default(),
                );
                assert_eq!(a, ins_scalar, "insertion {shards} shards block {block}");
                let (b, _) = answer_batch_sharded(
                    Model::Turnstile,
                    tst_batch.clone(),
                    &tst_feed,
                    pass_seed,
                    &mut arena,
                    PassOpts::with_block(block),
                    ExecPolicy::default(),
                );
                assert_eq!(b, tst_scalar, "turnstile {shards} shards block {block}");
            }
        }
    }
}

#[test]
fn single_update_streams_answer_identically() {
    let e = Edge::new(VertexId(0), VertexId(1));
    let ins = InsertionStream::from_edge_order(4, vec![e]);
    let batch = vec![
        Query::EdgeCount,
        Query::RandomEdge,
        Query::Degree(VertexId(0)),
        Query::RandomNeighbor(VertexId(1)),
        Query::Adjacent(VertexId(0), VertexId(1)),
        Query::IthNeighbor(VertexId(0), 1),
    ];
    for block in [0usize, 1, 2, 64] {
        let (a, _) = answer_batch(
            Model::Insertion,
            &batch,
            &ins,
            7,
            PassOpts::with_block(block),
        );
        assert_eq!(a[0], sgs_query::Answer::EdgeCount(1), "block {block}");
        assert_eq!(a[2], sgs_query::Answer::Degree(1), "block {block}");
        assert_eq!(a[4], sgs_query::Answer::Adjacent(true), "block {block}");
        let (b, _) = answer_batch(Model::Insertion, &batch, &ins, 7, PassOpts::with_block(0));
        assert_eq!(a, b, "block {block}");
    }
    for &shards in &SHARD_SWEEP {
        let feed = ShardedFeed::partition(&ins, shards);
        let mut arena = RouterArena::new();
        let (scalar, _) = answer_batch_sharded(
            Model::Insertion,
            batch.clone(),
            &feed,
            7,
            &mut arena,
            PassOpts::with_block(0),
            ExecPolicy::default(),
        );
        let (blocked, _) = answer_batch_sharded(
            Model::Insertion,
            batch.clone(),
            &feed,
            7,
            &mut arena,
            PassOpts::with_block(64),
            ExecPolicy::default(),
        );
        assert_eq!(blocked, scalar, "{shards} shards");
    }
}

#[test]
fn empty_streams_and_empty_batches_are_handled() {
    let ins = InsertionStream::from_edge_order(4, vec![]);
    let batch = mixed_batch(true);
    for block in [0usize, 1, 16] {
        let (a, _) = answer_batch(
            Model::Insertion,
            &batch,
            &ins,
            3,
            PassOpts::with_block(block),
        );
        let (b, _) = answer_batch(Model::Insertion, &batch, &ins, 3, PassOpts::with_block(0));
        assert_eq!(a, b, "empty stream, block {block}");
        // Empty batch: nothing to answer, nothing to panic over.
        let (empty, _) = answer_batch(Model::Insertion, &[], &ins, 3, PassOpts::with_block(block));
        assert!(empty.is_empty());
    }
    let g = sgs_graph::gen::gnm(10, 20, 5);
    let tst = TurnstileStream::from_graph_with_churn(&g, 0.5, 6);
    for block in [0usize, 16] {
        let (empty, _) = answer_batch(Model::Turnstile, &[], &tst, 3, PassOpts::with_block(block));
        assert!(empty.is_empty(), "block {block}");
    }
}

/// A triangle estimate through the public sharded entry point.
fn triangles(
    model: Model,
    feed: &ShardedFeed,
    trials: usize,
    seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
) -> CountEstimate {
    let spec = QuerySpec::new(Pattern::triangle(), trials, seed);
    sgs_core::fgp::estimate_on_feed(&spec, model, feed, arena, opts, ExecPolicy::default()).unwrap()
}

#[test]
fn estimates_are_bit_identical_across_block_sizes_and_shards() {
    // End to end through the public serving entry points: same hits,
    // same estimate, for scalar and blocked feeds at 1 and 4 shards.
    let g = sgs_graph::gen::gnm(30, 140, 31);
    let exact = sgs_graph::exact::triangles::count_triangles(&g);
    let ins = InsertionStream::from_graph(&g, 32);
    let tst = TurnstileStream::from_graph_with_churn(&g, 0.5, 33);
    let mut reference = None;
    let mut tst_reference = None;
    for &shards in &[1usize, 4] {
        let ins_feed = ShardedFeed::partition(&ins, shards);
        let tst_feed = ShardedFeed::partition(&tst, shards);
        for block in [0usize, 5, 128] {
            let mut arena = RouterArena::new();
            let opts = PassOpts::with_block(block);
            let est = triangles(Model::Insertion, &ins_feed, 3_000, 34, &mut arena, opts);
            let (hits, estimate) = *reference.get_or_insert((est.hits, est.estimate));
            assert_eq!(est.hits, hits, "{shards} shards, block {block}");
            assert_eq!(est.estimate, estimate, "{shards} shards, block {block}");
            assert_eq!(est.report.passes, 3);
            let tst_est = triangles(Model::Turnstile, &tst_feed, 600, 35, &mut arena, opts);
            let (th, te) = *tst_reference.get_or_insert((tst_est.hits, tst_est.estimate));
            assert_eq!(tst_est.hits, th, "turnstile {shards} shards, block {block}");
            assert_eq!(
                tst_est.estimate, te,
                "turnstile {shards} shards, block {block}"
            );
        }
    }
    let (_, estimate) = reference.unwrap();
    assert!(
        (estimate - exact as f64).abs() / exact.max(1) as f64 <= 0.5,
        "sanity: estimate {estimate} vs exact {exact}"
    );
}

/// Survivor-level dispatch across every awkward block geometry: the
/// remainder chunk of the cohort drain (`len % DISPATCH_CHUNK`) must be
/// handled for every size, so sweep turnstile blocks 1..=17 on an
/// odd-length stream and pin both ℓ₀ modes to the scalar predicated
/// oracle — answers and measured space alike.
#[test]
fn turnstile_dispatch_matches_predicated_at_block_remainders_1_to_17() {
    use sgs_query::L0Mode;
    let g = sgs_graph::gen::gnm(22, 83, 37);
    let tst = TurnstileStream::from_graph_with_churn(&g, 1.0, 38);
    let batch = mixed_batch(false);
    for pass_seed in 0..3u64 {
        let (oracle, _) = answer_batch(
            Model::Turnstile,
            &batch,
            &tst,
            pass_seed,
            PassOpts::oracle(),
        );
        for block in 1usize..=17 {
            let mut space_at_block = None;
            for mode in [L0Mode::Predicated, L0Mode::Dispatch] {
                let opts = PassOpts::with_block(block).l0(mode);
                let (got, space) = answer_batch(Model::Turnstile, &batch, &tst, pass_seed, opts);
                assert_eq!(got, oracle, "block {block} {mode:?} seed {pass_seed}");
                // The ℓ₀ mode never changes measured space — the cohort
                // scratch is part of the bank either way.
                let expect = *space_at_block.get_or_insert(space);
                assert_eq!(space, expect, "block {block} {mode:?} changed space");
            }
        }
    }
}

/// End to end through the turnstile estimator entry point: hits and
/// estimate are bit-identical under both ℓ₀ modes, at 1 and 4 shards,
/// scalar and blocked.
#[test]
fn turnstile_estimates_bit_identical_across_l0_modes() {
    use sgs_query::L0Mode;
    let g = sgs_graph::gen::gnm(30, 140, 31);
    let tst = TurnstileStream::from_graph_with_churn(&g, 0.5, 33);
    let mut reference = None;
    for &shards in &[1usize, 4] {
        let feed = ShardedFeed::partition(&tst, shards);
        for block in [0usize, 5, 128] {
            for mode in [L0Mode::Predicated, L0Mode::Dispatch] {
                let mut arena = RouterArena::new();
                let opts = PassOpts::with_block(block).l0(mode);
                let est = triangles(Model::Turnstile, &feed, 600, 35, &mut arena, opts);
                let (hits, estimate) = *reference.get_or_insert((est.hits, est.estimate));
                assert_eq!(est.hits, hits, "{shards} shards block {block} {mode:?}");
                assert_eq!(
                    est.estimate, estimate,
                    "{shards} shards block {block} {mode:?}"
                );
            }
        }
    }
}
