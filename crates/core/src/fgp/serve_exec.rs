//! The serving-side estimator entry point: one `#H` estimate on a
//! caller-owned persistent [`sgs_query::ShardRuntime`].
//!
//! A long-lived node ([`sgs_query::ServerNode`]) keeps one worker pool
//! alive across every query; [`estimate_on_runtime`] runs one COUNT on
//! it through the broadcast ring ([`sgs_query::run_broadcast`]) instead
//! of standing up threads per estimate. Each estimate is
//! **byte-identical** to the batch
//! [`crate::fgp::parallel_exec::estimate_on_feed`] run with the same
//! spec over the same feed — the broadcast engine's equivalence to the
//! sharded engine is the load-bearing invariant
//! (`tests/broadcast_equivalence.rs`), and the runtime dispatch is the
//! same `ShardRuntime::pass` the internally-pooled path takes.

use crate::fgp::counter::{CountEstimate, QuerySpec};
use sgs_query::{run_broadcast, BroadcastOpts, Model, PassOpts, RouterArena, ShardRuntime};
use sgs_stream::ShardedFeed;

/// Estimate `spec`'s `#H` from `feed` in `model` on a persistent
/// runtime. Byte-identical to
/// [`crate::fgp::parallel_exec::estimate_on_feed`] with the same spec.
/// `spec.reservoir` sets the reservoir mode; leave `opts.reservoir` at
/// its default (debug builds assert it). `None` if the pattern has no
/// sampler plan.
pub fn estimate_on_runtime(
    spec: &QuerySpec,
    model: Model,
    feed: &ShardedFeed,
    arena: &mut RouterArena,
    opts: PassOpts,
    bcast: BroadcastOpts,
    runtime: &mut ShardRuntime,
) -> Option<CountEstimate> {
    let (par, rho) = spec.bank(model)?;
    let (outcomes, report) = run_broadcast(
        model,
        par,
        feed,
        spec.run_seed(),
        arena,
        spec.pass_opts(opts),
        bcast,
        &mut [],
        Some(runtime),
    );
    Some(CountEstimate::from_outcomes(outcomes, rho, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgp::parallel_exec::estimate_on_feed;
    use crate::fgp::sampler::SamplerMode;
    use sgs_graph::{gen, Pattern};
    use sgs_query::ExecPolicy;
    use sgs_stream::reservoir::ReservoirMode;
    use sgs_stream::{InsertionStream, TurnstileStream};

    /// The live estimate on `rt` (through the caller's `arena`, as a
    /// serving node reuses one across queries) and the batch estimate on
    /// a fresh arena, serial policy.
    fn live_and_batch(
        spec: &QuerySpec,
        model: Model,
        feed: &ShardedFeed,
        opts: PassOpts,
        arena: &mut RouterArena,
        rt: &mut ShardRuntime,
    ) -> (CountEstimate, CountEstimate) {
        let policy = ExecPolicy::serial();
        let bcast = BroadcastOpts::with_policy(policy);
        let live = estimate_on_runtime(spec, model, feed, arena, opts, bcast, rt);
        let batch = estimate_on_feed(spec, model, feed, &mut RouterArena::new(), opts, policy);
        (live.unwrap(), batch.unwrap())
    }

    #[test]
    fn runtime_insertion_estimate_matches_batch_bits() {
        let g = gen::gnm(40, 160, 21);
        let ins = InsertionStream::from_graph(&g, 22);
        for shards in [1usize, 2, 4] {
            let feed = ShardedFeed::partition(&ins, shards);
            let mut rt = ShardRuntime::new(shards, ExecPolicy::serial());
            for (mode, reservoir) in [
                (SamplerMode::Indexed, ReservoirMode::Skip),
                (SamplerMode::Relaxed, ReservoirMode::Offer),
            ] {
                let spec = QuerySpec {
                    sampler: mode,
                    reservoir,
                    ..QuerySpec::new(Pattern::clique(3), 60, 9)
                };
                let opts = PassOpts::with_block(64);
                let mut arena = RouterArena::new();
                let (live, batch) =
                    live_and_batch(&spec, Model::Insertion, &feed, opts, &mut arena, &mut rt);
                assert_eq!(live.estimate.to_bits(), batch.estimate.to_bits());
                assert_eq!(live.hits, batch.hits);
                assert_eq!(live.report.passes, batch.report.passes);
            }
        }
    }

    #[test]
    fn runtime_turnstile_estimate_matches_batch_bits() {
        let g = gen::gnm(40, 160, 23);
        let tst = TurnstileStream::from_graph_with_churn(&g, 0.5, 24);
        for shards in [1usize, 2, 4] {
            let feed = ShardedFeed::partition(&tst, shards);
            let mut rt = ShardRuntime::new(shards, ExecPolicy::serial());
            let spec = QuerySpec::new(Pattern::clique(3), 40, 11);
            let opts = PassOpts::with_block(64);
            let mut arena = RouterArena::new();
            let (live, batch) =
                live_and_batch(&spec, Model::Turnstile, &feed, opts, &mut arena, &mut rt);
            assert_eq!(live.estimate.to_bits(), batch.estimate.to_bits());
            assert_eq!(live.hits, batch.hits);
        }
    }

    #[test]
    fn one_runtime_serves_many_estimates() {
        // The serving shape: one pool, many sequential queries — each
        // still byte-identical to its solo batch run.
        let g = gen::gnm(30, 120, 31);
        let ins = InsertionStream::from_graph(&g, 32);
        let feed = ShardedFeed::partition(&ins, 2);
        let mut rt = ShardRuntime::new(2, ExecPolicy::serial());
        let mut arena = RouterArena::new();
        for seed in [1u64, 2, 3] {
            let spec = QuerySpec::new(Pattern::clique(3), 30, seed);
            let opts = PassOpts::with_block(32);
            let (live, batch) =
                live_and_batch(&spec, Model::Insertion, &feed, opts, &mut arena, &mut rt);
            assert_eq!(live.estimate.to_bits(), batch.estimate.to_bits());
        }
    }
}
