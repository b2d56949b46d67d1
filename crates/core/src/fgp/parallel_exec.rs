//! The sharded estimator entry point: one `#H` estimate over an
//! already-partitioned feed, in either stream model.
//!
//! The `k` sampler trials of Theorem 17 share **one** `Parallel` bank
//! that drives [`run_sharded`], which hash-partitions the *stream*
//! across a [`ShardedFeed`], runs one private `QueryRouter` per shard
//! (pooled in a [`RouterArena`]), and merges per-shard answers back into
//! the exact single-stream batch answers.
//!
//! Because the merge is exact, the sharded estimate is **byte-identical**
//! to [`crate::fgp::counter::estimate_insertion`] /
//! [`crate::fgp::counter::estimate_turnstile`] with the same seed, for
//! any shard count — the logical pass count (3) and the estimate
//! distribution are unchanged by construction, not just in expectation.
//! Shard workers run on scoped threads (one per shard) when the injected
//! [`ExecPolicy`] says so; wall-clock time is the only thing that
//! changes. Callers partition the stream themselves (`sgs count` does),
//! so one feed and one warm arena can serve many estimates.

use crate::fgp::counter::{CountEstimate, QuerySpec};
use sgs_query::sharded::run_sharded;
use sgs_query::{ExecPolicy, Model, PassOpts, RouterArena};
use sgs_stream::ShardedFeed;

/// Estimate `spec`'s `#H` from an already-partitioned feed in `model`,
/// reusing a caller-owned arena (partition once, estimate many times,
/// zero router allocations after warm-up). `opts` carries the feed block
/// size (`<= 1` = scalar per-update path) and the ℓ₀ feed path; the
/// reservoir mode comes from `spec.reservoir`, so leave `opts.reservoir`
/// at its default (debug builds assert it). The estimate is bit-identical for
/// every option, shard count, and policy. `None` if the pattern has no
/// sampler plan.
pub fn estimate_on_feed(
    spec: &QuerySpec,
    model: Model,
    feed: &ShardedFeed,
    arena: &mut RouterArena,
    opts: PassOpts,
    policy: ExecPolicy,
) -> Option<CountEstimate> {
    let (par, rho) = spec.bank(model)?;
    let opts = spec.pass_opts(opts);
    let (outcomes, report) = run_sharded(model, par, feed, spec.run_seed(), arena, opts, policy);
    Some(CountEstimate::from_outcomes(outcomes, rho, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgp::counter::{estimate_insertion, estimate_turnstile};
    use sgs_graph::{exact, gen, Pattern};
    use sgs_stream::{EdgeStream, InsertionStream, TurnstileStream};

    /// A default-option estimate over `stream` partitioned `shards` ways.
    fn sharded(
        model: Model,
        stream: &impl EdgeStream,
        trials: usize,
        shards: usize,
        seed: u64,
    ) -> CountEstimate {
        let spec = QuerySpec::new(Pattern::triangle(), trials, seed);
        let feed = ShardedFeed::partition(stream, shards);
        let mut arena = RouterArena::new();
        let policy = ExecPolicy::default();
        estimate_on_feed(&spec, model, &feed, &mut arena, PassOpts::default(), policy).unwrap()
    }

    #[test]
    fn threaded_is_byte_identical_to_single_stream() {
        // Stronger than the old statistical check: sharding the stream
        // merges back to the exact single-stream answers, so the whole
        // estimate must match bit for bit at every shard count.
        let g = gen::gnm(40, 220, 1);
        let stream = InsertionStream::from_graph(&g, 2);
        let single = estimate_insertion(&Pattern::triangle(), &stream, 4_000, 4).unwrap();
        for threads in [1usize, 2, 4, 7] {
            let multi = sharded(Model::Insertion, &stream, 4_000, threads, 4);
            assert_eq!(multi.hits, single.hits, "{threads} shards");
            assert_eq!(multi.estimate, single.estimate, "{threads} shards");
            assert_eq!(multi.m, single.m);
            assert_eq!(multi.trials, 4_000);
            assert_eq!(multi.report.passes, 3, "logical passes, not per-shard");
        }
    }

    #[test]
    fn turnstile_threaded_is_byte_identical_to_single_stream() {
        let g = gen::gnm(24, 100, 31);
        let tst = TurnstileStream::from_graph_with_churn(&g, 0.5, 32);
        let single = estimate_turnstile(&Pattern::triangle(), &tst, 800, 33).unwrap();
        for threads in [1usize, 2, 4] {
            let multi = sharded(Model::Turnstile, &tst, 800, threads, 33);
            assert_eq!(multi.hits, single.hits, "{threads} shards");
            assert_eq!(multi.estimate, single.estimate, "{threads} shards");
            assert!(multi.report.passes <= 3);
        }
    }

    #[test]
    fn threaded_matches_single_threaded_statistically() {
        let g = gen::gnm(40, 220, 1);
        let exact_t = exact::triangles::count_triangles(&g);
        let stream = InsertionStream::from_graph(&g, 2);
        let multi = sharded(Model::Insertion, &stream, 24_000, 4, 4);
        assert_eq!(multi.trials, 24_000);
        assert_eq!(multi.report.passes, 3);
        let err = multi.relative_error(exact_t);
        assert!(err < 0.25, "error {err:.3}");
    }

    #[test]
    fn one_thread_is_fine() {
        let g = gen::gnm(20, 80, 4);
        let stream = InsertionStream::from_graph(&g, 5);
        let est = sharded(Model::Insertion, &stream, 2_000, 1, 6);
        assert_eq!(est.trials, 2_000);
    }

    #[test]
    fn more_threads_than_trials() {
        let g = gen::gnm(20, 80, 7);
        let stream = InsertionStream::from_graph(&g, 8);
        let est = sharded(Model::Insertion, &stream, 3, 8, 9);
        assert_eq!(est.trials, 3);
    }

    #[test]
    fn feed_and_arena_reuse_across_estimates() {
        // The serving-loop shape: partition once, estimate repeatedly on
        // a warm arena; results stay identical run over run and the
        // arena stops allocating after the first.
        let g = gen::gnm(30, 140, 11);
        let stream = InsertionStream::from_graph(&g, 12);
        let feed = ShardedFeed::partition(&stream, 4);
        let mut arena = RouterArena::new();
        let spec = QuerySpec::new(Pattern::triangle(), 2_000, 13);
        let estimate = |arena: &mut RouterArena| {
            let (opts, policy) = (PassOpts::default(), ExecPolicy::default());
            estimate_on_feed(&spec, Model::Insertion, &feed, arena, opts, policy).unwrap()
        };
        let first = estimate(&mut arena);
        assert!(arena.is_warm());
        for _ in 0..2 {
            let again = estimate(&mut arena);
            assert_eq!(again.hits, first.hits);
            assert_eq!(again.estimate, first.estimate);
        }
        assert_eq!(
            arena.growth_events_after_warmup(),
            0,
            "warm arena must not allocate per round"
        );
        assert_eq!(feed.logical_passes(), 9, "3 estimates × 3 logical passes");
    }
}
