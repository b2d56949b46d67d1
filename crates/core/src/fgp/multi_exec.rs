//! Multi-query estimator serving: many concurrent `#H` estimates from
//! ONE shared pass per round.
//!
//! [`crate::fgp::parallel_exec`] made one estimate cheap per pass;
//! serving-side traffic asks a different question — N estimates
//! (different patterns, trial counts, seeds, reservoir modes) arriving
//! together. Solo they cost `3·N` passes (every sampler is 3-round);
//! through [`sgs_query::QuerySet`] they cost exactly **3 shared
//! passes** total, because every trial bank rides the same merged
//! router. Each estimate is **byte-identical** to its solo
//! [`crate::fgp::parallel_exec::estimate_on_feed`] run with the same
//! spec, for any shard count, block size, and engine — the multiplexer
//! replays each job's private coin chain exactly.

use crate::fgp::counter::{CountEstimate, QuerySpec};
use sgs_query::multiplex::{AdmissionReport, Engine, QuerySet};
use sgs_query::{BroadcastOpts, ExecPolicy, Model, PassOpts, RouterArena};
use sgs_stream::ShardedFeed;

/// Admit every spec's bank and run the set on `engine`; `None` if any
/// pattern has no sampler plan.
fn run_multi(
    specs: &[QuerySpec],
    model: Model,
    feed: &ShardedFeed,
    arena: &mut RouterArena,
    opts: PassOpts,
    engine: Engine,
) -> Option<(Vec<CountEstimate>, AdmissionReport)> {
    let mut set = QuerySet::new();
    let mut rhos = Vec::with_capacity(specs.len());
    for spec in specs {
        let (par, rho) = spec.bank(model)?;
        set.admit(par, spec.run_seed(), spec.pass_opts(opts).reservoir);
        rhos.push(rho);
    }
    let out = set.run(model, feed, arena, opts, engine);
    let ests = out
        .outputs
        .into_iter()
        .zip(out.reports)
        .zip(rhos)
        .map(|((outcomes, report), rho)| CountEstimate::from_outcomes(outcomes, rho, report))
        .collect();
    Some((ests, out.admission))
}

/// Estimate every spec's `#H` in `model` from one shared pass per round
/// on the sharded engine. Returns per-spec estimates (spec order) plus
/// the multiplexer's admission report; `None` if any pattern has no
/// sampler plan. Each estimate is byte-identical to its solo run. Each
/// spec's `reservoir` sets its jobs' reservoir mode; leave
/// `opts.reservoir` at its default (debug builds assert it).
pub fn estimate_multi(
    specs: &[QuerySpec],
    model: Model,
    feed: &ShardedFeed,
    arena: &mut RouterArena,
    opts: PassOpts,
    policy: ExecPolicy,
) -> Option<(Vec<CountEstimate>, AdmissionReport)> {
    run_multi(specs, model, feed, arena, opts, Engine::Sharded(policy))
}

/// [`estimate_multi`] riding the broadcast ring: one producer pushes
/// each shared round's routed stream once. Producer stalls land in the
/// admission report. Estimates identical to the sharded engine.
pub fn estimate_multi_broadcast(
    specs: &[QuerySpec],
    model: Model,
    feed: &ShardedFeed,
    arena: &mut RouterArena,
    opts: PassOpts,
    bcast: BroadcastOpts,
) -> Option<(Vec<CountEstimate>, AdmissionReport)> {
    run_multi(specs, model, feed, arena, opts, Engine::Ring(bcast))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgp::parallel_exec::estimate_on_feed;
    use crate::fgp::sampler::SamplerMode;
    use sgs_graph::{gen, Pattern};
    use sgs_stream::reservoir::ReservoirMode;
    use sgs_stream::{InsertionStream, TurnstileStream};

    fn specs() -> Vec<QuerySpec> {
        vec![
            QuerySpec::new(Pattern::clique(3), 40, 11),
            QuerySpec {
                pattern: Pattern::cycle(5),
                trials: 25,
                seed: 22,
                sampler: SamplerMode::Relaxed,
                reservoir: ReservoirMode::Skip,
            },
            QuerySpec {
                pattern: Pattern::clique(3),
                trials: 10,
                seed: 33,
                sampler: SamplerMode::Relaxed,
                reservoir: ReservoirMode::Offer,
            },
        ]
    }

    #[test]
    fn multi_insertion_matches_solo_estimates() {
        let g = gen::gnm(40, 160, 7);
        let ins = InsertionStream::from_graph(&g, 8);
        let feed = ShardedFeed::partition(&ins, 2);
        let mut arena = RouterArena::new();
        let (ests, admission) = estimate_multi(
            &specs(),
            Model::Insertion,
            &feed,
            &mut arena,
            PassOpts::with_block(64),
            ExecPolicy::serial(),
        )
        .unwrap();
        assert_eq!(ests.len(), 3);
        assert_eq!(admission.rounds.len(), 3, "3-round samplers share 3 passes");
        for (spec, est) in specs().iter().zip(&ests) {
            let mut solo_arena = RouterArena::new();
            let solo = estimate_on_feed(
                spec,
                Model::Insertion,
                &feed,
                &mut solo_arena,
                PassOpts::with_block(64),
                ExecPolicy::serial(),
            )
            .unwrap();
            assert_eq!(est.estimate.to_bits(), solo.estimate.to_bits());
            assert_eq!(est.hits, solo.hits);
            assert_eq!(est.trials, solo.trials);
            assert_eq!(est.report.passes, solo.report.passes);
        }
    }

    #[test]
    fn multi_turnstile_matches_solo_estimates() {
        let g = gen::gnm(40, 160, 9);
        let tst = TurnstileStream::from_graph_with_churn(&g, 0.4, 10);
        let feed = ShardedFeed::partition(&tst, 2);
        let mut arena = RouterArena::new();
        let (ests, _) = estimate_multi(
            &specs(),
            Model::Turnstile,
            &feed,
            &mut arena,
            PassOpts::with_block(64),
            ExecPolicy::serial(),
        )
        .unwrap();
        for (spec, est) in specs().iter().zip(&ests) {
            let mut solo_arena = RouterArena::new();
            let solo = estimate_on_feed(
                spec,
                Model::Turnstile,
                &feed,
                &mut solo_arena,
                PassOpts::with_block(64),
                ExecPolicy::serial(),
            )
            .unwrap();
            assert_eq!(est.estimate.to_bits(), solo.estimate.to_bits());
            assert_eq!(est.hits, solo.hits);
        }
    }

    #[test]
    fn multi_broadcast_matches_sharded_engine() {
        let g = gen::gnm(40, 160, 12);
        let ins = InsertionStream::from_graph(&g, 13);
        let feed = ShardedFeed::partition(&ins, 3);
        let mut arena = RouterArena::new();
        let (sharded, _) = estimate_multi(
            &specs(),
            Model::Insertion,
            &feed,
            &mut arena,
            PassOpts::with_block(64),
            ExecPolicy::serial(),
        )
        .unwrap();
        let mut ring_arena = RouterArena::new();
        let (ringed, _) = estimate_multi_broadcast(
            &specs(),
            Model::Insertion,
            &feed,
            &mut ring_arena,
            PassOpts::with_block(64),
            BroadcastOpts::with_policy(ExecPolicy::serial()),
        )
        .unwrap();
        for (a, b) in sharded.iter().zip(&ringed) {
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
            assert_eq!(a.hits, b.hits);
        }
    }

    #[test]
    fn bad_pattern_returns_none() {
        let ins = InsertionStream::from_edge_order(4, vec![]);
        let feed = ShardedFeed::partition(&ins, 1);
        let mut arena = RouterArena::new();
        // An isolated vertex has no cycle-star decomposition.
        let bad = vec![QuerySpec::new(Pattern::from_edges(3, [(0, 1)]), 4, 1)];
        assert!(estimate_multi(
            &bad,
            Model::Insertion,
            &feed,
            &mut arena,
            PassOpts::with_block(0),
            ExecPolicy::serial()
        )
        .is_none());
    }
}
