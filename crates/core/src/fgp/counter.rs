//! The `(1 ± ε)` subgraph-count estimator (Theorems 1 and 17).
//!
//! The FGP sampler returns any fixed copy of `H` with probability
//! `1/(2m)^ρ(H)`, so the total success probability of one trial is
//! `p = #H/(2m)^ρ(H)`. Running `k` independent trials **in parallel**
//! (they share the same 3 rounds, hence the same 3 passes) and counting
//! successes `X` gives the estimator `#Ĥ = (2m)^ρ(H) · X/k`, concentrated
//! by Chernoff bounds once `k ≳ (2m)^ρ/(ε²·#H)`.

use crate::fgp::parallel_exec::estimate_on_feed;
use crate::fgp::plan::SamplerPlan;
use crate::fgp::sampler::{SamplerMode, SamplerOutcome, SubgraphSampler};
use sgs_graph::{AdjListGraph, Pattern, Rho};
use sgs_query::exec::run_on_oracle;
use sgs_query::{ExactOracle, ExecPolicy, ExecReport, Model, Parallel, PassOpts, RouterArena};
use sgs_stream::hash::split_seed;
use sgs_stream::reservoir::ReservoirMode;
use sgs_stream::{EdgeStream, ShardedFeed};
use std::sync::Arc;

/// One `#H` estimate to run: everything every engine's entry point takes
/// per estimate, in either stream model.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// The pattern `H` to count.
    pub pattern: Pattern,
    /// Parallel sampler trials `k`.
    pub trials: usize,
    /// The estimate's seed: trial `i` runs on `split_seed(seed, i)`, the
    /// executor on `split_seed(seed, u64::MAX)`.
    pub seed: u64,
    /// Which query mix the trials ask; the turnstile model overrides it
    /// (see [`SamplerMode::in_model`]).
    pub sampler: SamplerMode,
    /// Relaxed-`f3` reservoir acceptance scheme (insertion model only).
    /// The one place an estimate takes its reservoir mode from: it
    /// overrides the `reservoir` field of the [`PassOpts`] an entry point
    /// is given, which must stay at its default or equal this field
    /// (debug builds assert it).
    pub reservoir: ReservoirMode,
}

impl QuerySpec {
    /// A spec with the library defaults: indexed sampler, default
    /// reservoir mode.
    pub fn new(pattern: Pattern, trials: usize, seed: u64) -> Self {
        QuerySpec {
            pattern,
            trials,
            seed,
            sampler: SamplerMode::Indexed,
            reservoir: ReservoirMode::default(),
        }
    }

    /// The trial bank this spec runs in `model`, and the pattern's `ρ`;
    /// `None` if the pattern has no sampler plan (isolated vertices).
    pub(crate) fn bank(&self, model: Model) -> Option<(Parallel<SubgraphSampler>, Rho)> {
        let plan = SamplerPlan::new(&self.pattern)?;
        let mode = self.sampler.in_model(model);
        Some((
            build_parallel(&plan, mode, self.trials, self.seed),
            plan.rho(),
        ))
    }

    /// The executor seed: the pass-seed chain every engine walks.
    pub(crate) fn run_seed(&self) -> u64 {
        split_seed(self.seed, u64::MAX)
    }

    /// `opts` with this spec's reservoir mode. The caller's
    /// `opts.reservoir` must be left at its default (or already agree):
    /// a debug build panics on a conflicting one rather than ignore it.
    pub(crate) fn pass_opts(&self, opts: PassOpts) -> PassOpts {
        debug_assert!(
            opts.reservoir == ReservoirMode::default() || opts.reservoir == self.reservoir,
            "set the reservoir mode on QuerySpec::reservoir, not PassOpts ({:?} vs spec {:?})",
            opts.reservoir,
            self.reservoir,
        );
        opts.reservoir(self.reservoir)
    }
}

/// The result of a counting run.
#[derive(Clone, Debug)]
pub struct CountEstimate {
    /// The `(2m)^ρ · X/k` estimate of `#H`.
    pub estimate: f64,
    /// Successful trials `X`.
    pub hits: u64,
    /// Total trials `k`.
    pub trials: usize,
    /// Edge count observed in pass/round 1.
    pub m: usize,
    /// `ρ(H)`.
    pub rho: Rho,
    /// Rounds/passes/queries/space actually used.
    pub report: ExecReport,
}

impl CountEstimate {
    pub(crate) fn from_outcomes(
        outcomes: Vec<SamplerOutcome>,
        rho: Rho,
        report: ExecReport,
    ) -> Self {
        let trials = outcomes.len();
        let m = outcomes.iter().map(|o| o.m).max().unwrap_or(0);
        let hits = outcomes.iter().filter(|o| o.copy.is_some()).count() as u64;
        let estimate = if trials == 0 {
            0.0
        } else {
            rho.pow(2.0 * m as f64) * hits as f64 / trials as f64
        };
        CountEstimate {
            estimate,
            hits,
            trials,
            m,
            rho,
            report,
        }
    }

    /// Relative error against a known ground truth.
    pub fn relative_error(&self, exact: u64) -> f64 {
        if exact == 0 {
            return if self.estimate == 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
        }
        (self.estimate - exact as f64).abs() / exact as f64
    }
}

pub(crate) fn build_parallel(
    plan: &Arc<SamplerPlan>,
    mode: SamplerMode,
    trials: usize,
    seed: u64,
) -> Parallel<SubgraphSampler> {
    Parallel::new(
        (0..trials)
            .map(|i| SubgraphSampler::new(plan.clone(), mode, split_seed(seed, i as u64)))
            .collect(),
    )
}

/// Estimate `#H` from an insertion-only stream with `trials` parallel
/// sampler copies (3 passes total; Theorem 17). Returns `None` for
/// patterns with isolated vertices.
pub fn estimate_insertion(
    pattern: &Pattern,
    stream: &impl EdgeStream,
    trials: usize,
    seed: u64,
) -> Option<CountEstimate> {
    estimate_stream(Model::Insertion, pattern, stream, trials, seed)
}

/// Estimate `#H` from a turnstile stream (3 passes; Theorem 1).
pub fn estimate_turnstile(
    pattern: &Pattern,
    stream: &impl EdgeStream,
    trials: usize,
    seed: u64,
) -> Option<CountEstimate> {
    estimate_stream(Model::Turnstile, pattern, stream, trials, seed)
}

/// One-shard, default-option [`estimate_on_feed`] over a whole stream.
fn estimate_stream(
    model: Model,
    pattern: &Pattern,
    stream: &impl EdgeStream,
    trials: usize,
    seed: u64,
) -> Option<CountEstimate> {
    let spec = QuerySpec::new(pattern.clone(), trials, seed);
    let feed = ShardedFeed::partition(stream, 1);
    let mut arena = RouterArena::new();
    let opts = PassOpts::default();
    estimate_on_feed(&spec, model, &feed, &mut arena, opts, ExecPolicy::default())
}

/// Estimate `#H` via direct query access (the sublinear-time mode).
pub fn estimate_oracle(
    pattern: &Pattern,
    g: &AdjListGraph,
    trials: usize,
    seed: u64,
) -> Option<CountEstimate> {
    let plan = SamplerPlan::new(pattern)?;
    let par = build_parallel(&plan, SamplerMode::Indexed, trials, seed);
    let mut oracle = ExactOracle::new(g, split_seed(seed, u64::MAX));
    let (outcomes, report) = run_on_oracle(par, &mut oracle);
    Some(CountEstimate::from_outcomes(outcomes, plan.rho(), report))
}

/// The paper's trial count (proof of Theorem 17):
/// `k = 30·(2m)^ρ·ln(n) / (ε²·L)`, where `L ≤ #H` is the promised lower
/// bound. Astronomically conservative; use [`practical_trials`] for
/// experiments and keep this for the record.
pub fn theory_trials(n: usize, m: usize, rho: Rho, epsilon: f64, lower_bound: f64) -> usize {
    assert!(epsilon > 0.0 && lower_bound > 0.0);
    let k =
        30.0 * rho.pow(2.0 * m as f64) * (n.max(2) as f64).ln() / (epsilon * epsilon * lower_bound);
    k.ceil() as usize
}

/// A calibrated trial count with the same functional form,
/// `k = c·(2m)^ρ / (ε²·L)` with `c = 8`: enough for the success-count
/// concentration at the confidence levels the experiments report.
pub fn practical_trials(m: usize, rho: Rho, epsilon: f64, lower_bound: f64) -> usize {
    assert!(epsilon > 0.0 && lower_bound > 0.0);
    let k = 8.0 * rho.pow(2.0 * m as f64) / (epsilon * epsilon * lower_bound);
    (k.ceil() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::exact;
    use sgs_graph::gen;
    use sgs_stream::{InsertionStream, TurnstileStream};

    #[test]
    fn insertion_estimate_converges_triangle() {
        let g = gen::gnm(30, 150, 21);
        let exact = exact::triangles::count_triangles(&g);
        assert!(exact > 50);
        let ins = InsertionStream::from_graph(&g, 22);
        let est = estimate_insertion(&Pattern::triangle(), &ins, 40_000, 23).unwrap();
        assert_eq!(est.report.passes, 3);
        assert!(
            est.relative_error(exact) < 0.2,
            "estimate {} vs exact {exact}",
            est.estimate
        );
    }

    #[test]
    fn turnstile_estimate_converges_triangle() {
        let g = gen::gnm(24, 100, 31);
        let exact = exact::triangles::count_triangles(&g);
        assert!(exact > 20);
        let tst = TurnstileStream::from_graph_with_churn(&g, 0.5, 32);
        let est = estimate_turnstile(&Pattern::triangle(), &tst, 20_000, 33).unwrap();
        assert!(est.report.passes <= 3);
        assert!(
            est.relative_error(exact) < 0.3,
            "estimate {} vs exact {exact}",
            est.estimate
        );
    }

    #[test]
    fn oracle_estimate_wedges() {
        let g = gen::gnm(25, 80, 41);
        let exact = exact::stars::count_wedges(&g);
        let est = estimate_oracle(&Pattern::star(2), &g, 30_000, 42).unwrap();
        assert!(
            est.relative_error(exact) < 0.2,
            "estimate {} vs exact {exact}",
            est.estimate
        );
        assert_eq!(est.m, 80);
    }

    #[test]
    fn zero_copies_estimates_zero_ish() {
        // Bipartite graph: no triangles; the estimator should say ~0.
        let g = gen::complete_bipartite(8, 8);
        let ins = InsertionStream::from_graph(&g, 1);
        let est = estimate_insertion(&Pattern::triangle(), &ins, 5_000, 2).unwrap();
        assert_eq!(est.hits, 0);
        assert_eq!(est.estimate, 0.0);
    }

    #[test]
    fn trial_formulas() {
        let rho = Rho::from_halves(3); // 3/2
        let t = theory_trials(1000, 500, rho, 0.1, 100.0);
        let p = practical_trials(500, rho, 0.1, 100.0);
        assert!(t > p, "theory constant should dominate: {t} vs {p}");
        assert!(p >= 1);
        // Scaling: doubling m multiplies trials by ~2^1.5.
        let p2 = practical_trials(1000, rho, 0.1, 100.0);
        let ratio = p2 as f64 / p as f64;
        assert!((2.6..3.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn isolated_vertex_pattern_returns_none() {
        let p = Pattern::from_edges(3, [(0, 1)]);
        let g = gen::gnm(10, 20, 1);
        let ins = InsertionStream::from_graph(&g, 2);
        assert!(estimate_insertion(&p, &ins, 10, 3).is_none());
    }
}
