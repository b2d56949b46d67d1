//! The four workloads: their parameters and their seeded inputs.
//!
//! Everything a run needs is derived from `(workload, seed, sizes)` here,
//! so the input generator (`gen`) and the traced run (`trace`) agree on
//! every parameter without passing them around. `gen` writes the inputs
//! plus a `plan.json` that tells `run.py` how to drive the `sgs` binary
//! and what the exact answers are.

use sgs_graph::exact::count_pattern_auto;
use sgs_graph::{gen, AdjListGraph, Edge, Pattern, StaticGraph};
use sgs_prng::{split_seed, FastRng};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BatchInsertion,
    BatchTurnstile,
    BatchMulti,
    ServeMixed,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "batch-insertion" => Some(Self::BatchInsertion),
            "batch-turnstile" => Some(Self::BatchTurnstile),
            "batch-multi" => Some(Self::BatchMulti),
            "serve-mixed" => Some(Self::ServeMixed),
            _ => None,
        }
    }
}

/// Input sizes: [`FULL`] for measured runs, [`TOY`] for the smoke mode.
pub struct Sizes {
    /// Vertices of every zipf-hub graph (exponent [`ZIPF_S`]).
    pub zipf_n: usize,
    /// Edges of the batch zipf-hub graph (`batch-insertion`, `batch-multi`).
    pub batch_m: usize,
    /// `batch-insertion` trials; `None` leaves the CLI default.
    pub insertion_trials: Option<usize>,
    /// `batch-turnstile`: `gnm(n, m)`, counted on this many shards with
    /// this many trials.
    pub turnstile_n: usize,
    pub turnstile_m: usize,
    pub turnstile_shards: usize,
    pub turnstile_trials: usize,
    /// `batch-multi`: one `sgs count --queries` line each.
    pub multi_queries: [&'static str; 4],
    /// `serve-mixed` draws its insert-only stream from a shuffled
    /// zipf-hub graph of `serve_pool` edges ...
    pub serve_pool: usize,
    /// ... preloads the node with the first `serve_preload` of them ...
    pub serve_preload: usize,
    /// ... and asks every COUNT with this many trials.
    pub serve_count_trials: usize,
}

pub const ZIPF_S: f64 = 1.2;

pub const FULL: Sizes = Sizes {
    zipf_n: 20_000,
    batch_m: 100_000,
    insertion_trials: None,
    turnstile_n: 150,
    turnstile_m: 5_000,
    turnstile_shards: 2,
    turnstile_trials: 2_000,
    multi_queries: [
        "triangle trials=200000",
        "triangle trials=40000 relaxed",
        "triangle trials=40000 relaxed reservoir=offer",
        "K4 trials=200000",
    ],
    serve_pool: 60_000,
    serve_preload: 20_000,
    serve_count_trials: 20_000,
};

pub const TOY: Sizes = Sizes {
    zipf_n: 400,
    batch_m: 2_000,
    insertion_trials: Some(20_000),
    turnstile_n: 40,
    turnstile_m: 300,
    turnstile_shards: 2,
    turnstile_trials: 400,
    multi_queries: [
        "triangle trials=20000",
        "triangle trials=5000 relaxed",
        "triangle trials=5000 relaxed reservoir=offer",
        "K4 trials=20000",
    ],
    serve_pool: 3_000,
    serve_preload: 500,
    serve_count_trials: 5_000,
};

/// The graph a batch workload counts in (`serve-mixed`: the pool its
/// update stream is drawn from).
fn graph(w: Workload, seed: u64, z: &Sizes) -> AdjListGraph {
    // Distinct from the `--seed` the estimator runs with, so graph and
    // coins are independent.
    let gs = split_seed(seed, 1);
    match w {
        Workload::BatchInsertion | Workload::BatchMulti => {
            gen::zipf_hub(z.zipf_n, z.batch_m, ZIPF_S, gs)
        }
        Workload::BatchTurnstile => gen::gnm(z.turnstile_n, z.turnstile_m, gs),
        Workload::ServeMixed => gen::zipf_hub(z.zipf_n, z.serve_pool, ZIPF_S, gs),
    }
}

/// `serve-mixed`'s insert-only update order: the pool graph's edges in a
/// seeded shuffle.
pub fn serve_updates(seed: u64, z: &Sizes) -> Vec<Edge> {
    let mut edges = graph(Workload::ServeMixed, seed, z).edges();
    FastRng::seed_from_u64(split_seed(seed, 2)).shuffle(&mut edges);
    edges
}

/// One parsed `--queries` line, as the traced run needs it.
pub struct MultiLine {
    pub pattern: Pattern,
    pub trials: usize,
    pub relaxed: bool,
    pub offer: bool,
}

pub fn multi_lines(z: &Sizes) -> Vec<MultiLine> {
    z.multi_queries
        .iter()
        .map(|line| {
            let mut toks = line.split_whitespace();
            let pattern = sgs_graph::zoo::parse_pattern(toks.next().expect("pattern token"))
                .expect("benchmark query patterns parse");
            let mut q = MultiLine {
                pattern,
                trials: 0,
                relaxed: false,
                offer: false,
            };
            for t in toks {
                match t {
                    "relaxed" => q.relaxed = true,
                    "reservoir=offer" => q.offer = true,
                    _ => {
                        q.trials = t
                            .strip_prefix("trials=")
                            .and_then(|v| v.parse().ok())
                            .expect("trials=N")
                    }
                }
            }
            q
        })
        .collect()
}

/// Running triangle count of an insert-only sequence: entry `p` is the
/// number of triangles among the first `p` edges (`p = 0..=len`).
pub fn prefix_triangles(n: usize, edges: &[Edge]) -> Vec<u64> {
    let mut adj: Vec<HashSet<u32>> = vec![HashSet::new(); n];
    let mut out = Vec::with_capacity(edges.len() + 1);
    let mut total = 0u64;
    out.push(0);
    for e in edges {
        let (a, b) = (e.u().0 as usize, e.v().0 as usize);
        let (small, large) = if adj[a].len() <= adj[b].len() {
            (&adj[a], &adj[b])
        } else {
            (&adj[b], &adj[a])
        };
        total += small.iter().filter(|w| large.contains(w)).count() as u64;
        adj[a].insert(b as u32);
        adj[b].insert(a as u32);
        out.push(total);
    }
    out
}

fn json_str_list(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// One exact answer: `#H`, the edge count `m` the estimator sees, and
/// `ρ(H)`, which together give the expected hit rate `#H/(2m)^ρ`.
fn check_json(name: &str, exact: u64, m: usize, rho: f64) -> String {
    format!("\"{name}\": {{\"exact\": {exact}, \"m\": {m}, \"rho\": {rho}}}")
}

fn rho(p: &Pattern) -> f64 {
    sgs_core::SamplerPlan::new(p)
        .expect("benchmark patterns have an edge cover")
        .rho()
        .as_f64()
}

/// The `--queries` file of `batch-multi`; `setup` pins every trial count
/// to 1.
fn queries_file(z: &Sizes, setup: bool) -> String {
    let mut out = String::new();
    for q in z.multi_queries {
        if setup {
            let rest: Vec<&str> = q
                .split_whitespace()
                .filter(|t| !t.starts_with("trials="))
                .collect();
            let _ = writeln!(out, "{} trials=1", rest.join(" "));
        } else {
            let _ = writeln!(out, "{q}");
        }
    }
    out
}

/// The `sgs` argument list of a batch workload, relative to its input
/// directory. `setup` pins every trial count to 1: the same command minus
/// the sampling work (parse, stream build, partition, three near-empty
/// passes).
fn batch_argv(w: Workload, seed: u64, z: &Sizes, setup: bool) -> Vec<String> {
    let trials = |n: usize| if setup { 1 } else { n }.to_string();
    let mut a = args(&["count", "--edges", "edges.txt"]);
    match w {
        Workload::BatchInsertion => {
            a.extend(args(&["--pattern", "triangle"]));
            // Full size keeps the default flags: the CLI sizes the trial
            // count itself.
            if let Some(n) = z.insertion_trials.filter(|_| !setup) {
                a.extend(args(&["--trials", &n.to_string()]));
            } else if setup {
                a.extend(args(&["--trials", "1"]));
            }
        }
        Workload::BatchTurnstile => a.extend(args(&[
            "--pattern",
            "triangle",
            "--turnstile",
            "--shards",
            &z.turnstile_shards.to_string(),
            "--trials",
            &trials(z.turnstile_trials),
        ])),
        Workload::BatchMulti => a.extend(args(&[
            "--queries",
            if setup {
                "queries_setup.txt"
            } else {
                "queries.txt"
            },
        ])),
        Workload::ServeMixed => unreachable!("serve-mixed runs no `sgs count`"),
    }
    a.extend(args(&["--seed", &seed.to_string(), "--bits"]));
    a
}

/// Write the inputs of `(w, seed)` into `dir` plus `plan.json`.
pub fn generate(w: Workload, seed: u64, z: &Sizes, dir: &Path) -> std::io::Result<()> {
    let plan = if w == Workload::ServeMixed {
        let trials = z.serve_count_trials;
        let updates = serve_updates(seed, z);
        let mut text = String::with_capacity(updates.len() * 14);
        for e in &updates {
            let _ = writeln!(text, "{} {} +1", e.u().0, e.v().0);
        }
        std::fs::write(dir.join("updates.txt"), text)?;
        let mut text = String::new();
        for t in prefix_triangles(z.zipf_n, &updates) {
            let _ = writeln!(text, "{t}");
        }
        std::fs::write(dir.join("prefix_triangles.txt"), text)?;
        format!(
            "{{\"kind\": \"serve\", \"preload\": {}, \"pool\": {}, \
             \"count\": \"COUNT triangle trials={trials} seed={seed}\", \"trials\": {trials}, \
             \"rho\": {}}}",
            z.serve_preload,
            updates.len(),
            rho(&Pattern::triangle()),
        )
    } else {
        let g = graph(w, seed, z);
        let mut text = Vec::new();
        sgs_graph::io::write_edge_list(&g, &mut text)?;
        std::fs::write(dir.join("edges.txt"), text)?;
        // The patterns `sgs count` answers, in output order.
        let answers: Vec<Pattern> = if w == Workload::BatchMulti {
            std::fs::write(dir.join("queries.txt"), queries_file(z, false))?;
            std::fs::write(dir.join("queries_setup.txt"), queries_file(z, true))?;
            multi_lines(z).into_iter().map(|q| q.pattern).collect()
        } else {
            vec![Pattern::triangle()]
        };
        let mut checks: Vec<String> = Vec::new();
        for (i, p) in answers.iter().enumerate() {
            if answers[..i].iter().all(|q| q.name() != p.name()) {
                let exact = count_pattern_auto(&g, p);
                checks.push(check_json(p.name(), exact, g.num_edges(), rho(p)));
            }
        }
        let names: Vec<String> = answers.iter().map(|p| p.name().to_string()).collect();
        format!(
            "{{\"kind\": \"batch\", \"args\": {}, \"setup_args\": {}, \"answers\": {}, \
             \"checks\": {{{}}}}}",
            json_str_list(&batch_argv(w, seed, z, false)),
            json_str_list(&batch_argv(w, seed, z, true)),
            json_str_list(&names),
            checks.join(", "),
        )
    };
    std::fs::write(dir.join("plan.json"), plan + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_triangles_counts_each_closing_edge() {
        // K4 inserted edge by edge: triangles appear as edges close them.
        let e = |a: u32, b: u32| Edge::from((a, b));
        let edges = [e(0, 1), e(1, 2), e(0, 2), e(2, 3), e(1, 3), e(0, 3)];
        assert_eq!(prefix_triangles(4, &edges), vec![0, 0, 0, 1, 1, 2, 4]);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(serve_updates(5, &TOY), serve_updates(5, &TOY));
        assert_ne!(serve_updates(5, &TOY), serve_updates(6, &TOY));
    }

    #[test]
    fn setup_commands_pin_trials_to_one() {
        for z in [&FULL, &TOY] {
            let a = batch_argv(Workload::BatchInsertion, 3, z, true);
            assert_eq!(a.iter().filter(|t| *t == "--trials").count(), 1);
            assert!(a.windows(2).any(|w| w[0] == "--trials" && w[1] == "1"));
            assert!(queries_file(z, true)
                .lines()
                .all(|l| l.ends_with(" trials=1")));
        }
        // Full size runs `sgs count` with its default trial count.
        let full = batch_argv(Workload::BatchInsertion, 3, &FULL, false);
        assert!(!full.iter().any(|t| t == "--trials"));
    }
}
