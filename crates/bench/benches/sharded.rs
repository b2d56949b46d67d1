//! Sharded-pipeline scaling bench: 1/2/4/8 feed shards vs the
//! single-router baseline (the same pass over a one-shard feed, with its
//! own arena) on the relaxed-f3 insertion workload.
//!
//! Workload: the three real captured rounds of a triangle estimator with
//! relaxed `f3` (thousands of pending `RandomNeighbor` reservoirs — the
//! feed-path-dominated regime the router and the sharded pipeline both
//! target), re-answered per pass exactly like `benches/executor.rs`'s
//! `insertion_pass_relaxed` group.
//!
//! Three numbers per shard count:
//!
//! * **wall/seq** — wall clock with shard workers forced sequential
//!   (`ExecPolicy::serial()`): the total CPU work of the sharded pass.
//!   Expect ≈ baseline at 1 shard and a modest overhead factor above it
//!   as shards climb (dual endpoint delivery).
//! * **critical** — Σ over passes of the *slowest shard's* measured feed
//!   time: the pass latency of a deployment running one shard per core.
//!   This is the headline scaling number, reproducible on any host
//!   because each shard is timed in isolation (no core contention).
//! * **wall/auto** — wall clock with the default execution policy
//!   (scoped threads when the host has >1 core). On a multi-core host
//!   this tracks `critical` plus thread overhead; on a single-core CI
//!   box it degrades to `wall/seq` — which is why `critical` is recorded
//!   separately.
//!
//! Run `cargo bench -p sgs-bench --bench sharded` (add `smoke` for the
//! CI-sized configuration). Set `SGS_BENCH_JSON=<path>` to write the
//! machine-readable record committed as `BENCH_sharded.json`.

use sgs_core::fgp::{SamplerMode, SamplerPlan, SubgraphSampler};
use sgs_graph::{gen, Pattern};
use sgs_query::exec::answer_batch;
use sgs_query::sharded::answer_batch_sharded;
use sgs_query::{ExecPolicy, Model, Parallel, PassOpts, Query, RoundAdaptive, RouterArena};
use sgs_stream::hash::split_seed;
use sgs_stream::{EdgeStream, InsertionStream, ShardedFeed};
use std::hint::black_box;
use std::time::Instant;

/// Capture the real per-round batches of one estimator run by driving
/// the protocol with the production executor.
fn capture_batches(
    trials: usize,
    stream: &InsertionStream,
    bank_seed: u64,
    exec_seed: u64,
) -> Vec<(Vec<Query>, u64)> {
    let plan = SamplerPlan::new(&Pattern::triangle()).unwrap();
    let mut par = Parallel::new(
        (0..trials)
            .map(|i| {
                SubgraphSampler::new(
                    plan.clone(),
                    SamplerMode::Relaxed,
                    split_seed(bank_seed, i as u64),
                )
            })
            .collect::<Vec<_>>(),
    );
    let mut batches = Vec::new();
    let mut answers = Vec::new();
    let mut pass = 0u64;
    loop {
        let batch = par.next_round(&answers);
        if batch.is_empty() {
            break;
        }
        pass += 1;
        let pass_seed = split_seed(exec_seed, pass);
        let (a, _) = answer_batch(
            Model::Insertion,
            &batch,
            stream,
            pass_seed,
            PassOpts::default(),
        );
        batches.push((batch, pass_seed));
        answers = a;
    }
    batches
}

/// Noise-robust sample statistic: minimum. This box's scheduler noise is
/// strictly additive (±30% between runs — see the verify notes), so the
/// fastest sample is the closest observation of the true cost; applied
/// to baseline and sharded runs alike.
fn best(ns: Vec<u64>) -> u64 {
    ns.into_iter().min().unwrap_or(0)
}

fn human(ns: u64) -> String {
    if ns < 1_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{:.2} ms", ns as f64 / 1e6)
    }
}

struct ShardResult {
    shards: usize,
    wall_seq_ns: u64,
    critical_ns: u64,
    wall_auto_ns: u64,
    /// Mean total feed nanos per shard over the timed iterations (from
    /// `RouterArena::shard_pass_nanos`): the per-shard load histogram —
    /// groundwork for shard-aware trial placement.
    shard_load_ns: Vec<u64>,
}

/// Time `iters` full 3-round answer sets through the sharded path,
/// returning (best wall ns, best critical-path ns over timed iters, and
/// the mean per-shard total feed nanos — the shard load histogram).
fn run_sharded(
    batches: &[(Vec<Query>, u64)],
    feed: &ShardedFeed,
    samples: usize,
    policy: ExecPolicy,
) -> (u64, u64, Vec<u64>) {
    let mut arena = RouterArena::new();
    let opts = PassOpts::default();
    // Warm-up: allocator growth and page faults land here.
    for _ in 0..2 {
        for (batch, seed) in batches {
            black_box(answer_batch_sharded(
                Model::Insertion,
                batch.to_vec(),
                feed,
                *seed,
                &mut arena,
                opts,
                policy,
            ));
        }
    }
    let _ = arena.take_shard_pass_nanos();
    let mut walls = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        for (batch, seed) in batches {
            black_box(answer_batch_sharded(
                Model::Insertion,
                batch.to_vec(),
                feed,
                *seed,
                &mut arena,
                opts,
                policy,
            ));
        }
        walls.push(t0.elapsed().as_nanos() as u64);
    }
    // Telemetry: per shard, one entry per pass per timed iteration, in
    // lockstep across shards. Critical path of one iteration = sum over
    // its passes of the slowest shard; best over iterations (a mean or
    // median lets preempted pass samples poison the figure).
    let nanos = arena.take_shard_pass_nanos();
    let passes = nanos[0].len() / samples;
    debug_assert!(nanos.iter().all(|s| s.len() == passes * samples));
    let criticals: Vec<u64> = (0..samples)
        .map(|it| {
            (it * passes..(it + 1) * passes)
                .map(|e| nanos.iter().map(|s| s[e]).max().unwrap_or(0))
                .sum()
        })
        .collect();
    let shard_load_ns: Vec<u64> = nanos
        .iter()
        .map(|s| s.iter().sum::<u64>() / samples as u64)
        .collect();
    (best(walls), best(criticals), shard_load_ns)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a.contains("smoke"));
    let (trials, samples, shard_counts): (usize, usize, &[usize]) = if smoke {
        (1_000, 5, &[1, 4])
    } else {
        (8_000, 15, &[1, 2, 4, 8])
    };
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let g = gen::gnm(800, 12_000, 3);
    let stream = InsertionStream::from_graph(&g, 4);
    println!(
        "sharded bench: relaxed-f3 triangle bank, {} trials, gnm(800, 12000), {} passes, host cores: {cores}",
        trials, 3
    );
    let batches = capture_batches(trials, &stream, 7, 5);
    let updates_per_set = (batches.len() * stream.len()) as u64;

    // Baseline: one router over a one-shard feed.
    let one_shard = ShardedFeed::partition(&stream, 1);
    let mut one_arena = RouterArena::new();
    let mut base_samples = Vec::with_capacity(samples);
    for _ in 0..2 {
        for (batch, seed) in &batches {
            black_box(answer_batch_sharded(
                Model::Insertion,
                batch.clone(),
                &one_shard,
                *seed,
                &mut one_arena,
                PassOpts::default(),
                ExecPolicy::serial(),
            ));
        }
    }
    for _ in 0..samples {
        let t0 = Instant::now();
        for (batch, seed) in &batches {
            black_box(answer_batch_sharded(
                Model::Insertion,
                batch.clone(),
                &one_shard,
                *seed,
                &mut one_arena,
                PassOpts::default(),
                ExecPolicy::serial(),
            ));
        }
        base_samples.push(t0.elapsed().as_nanos() as u64);
    }
    let baseline_ns = best(base_samples);
    println!(
        "{:<28} {:>12}   ({:.3} Mupd/s)",
        "baseline (one-shard feed)",
        human(baseline_ns),
        updates_per_set as f64 * 1e3 / baseline_ns as f64
    );

    let mut results = Vec::new();
    for &shards in shard_counts {
        let feed = ShardedFeed::partition(&stream, shards);
        let (wall_seq_ns, critical_ns, shard_load_ns) =
            run_sharded(&batches, &feed, samples, ExecPolicy::serial());
        let (wall_auto_ns, _, _) = run_sharded(&batches, &feed, samples, ExecPolicy::auto());
        println!(
            "{:<28} wall/seq {:>10}  critical {:>10} ({:.2}x)  wall/auto {:>10} ({:.2}x)",
            format!("sharded/{shards}"),
            human(wall_seq_ns),
            human(critical_ns),
            baseline_ns as f64 / critical_ns as f64,
            human(wall_auto_ns),
            baseline_ns as f64 / wall_auto_ns as f64,
        );
        results.push(ShardResult {
            shards,
            wall_seq_ns,
            critical_ns,
            wall_auto_ns,
            shard_load_ns,
        });
    }

    // Sanity: the sharded path must still produce the exact baseline
    // answers (the equivalence suite proves this at length; keep the
    // bench honest about what it measured).
    {
        let feed = ShardedFeed::partition(&stream, *shard_counts.last().unwrap());
        let mut arena = RouterArena::new();
        for (batch, seed) in &batches {
            let (a, _) = answer_batch(Model::Insertion, batch, &stream, *seed, PassOpts::default());
            let (b, _) = answer_batch_sharded(
                Model::Insertion,
                batch.to_vec(),
                &feed,
                *seed,
                &mut arena,
                PassOpts::default(),
                ExecPolicy::default(),
            );
            assert_eq!(a, b, "sharded answers diverged from baseline");
        }
        println!("equivalence check: sharded answers identical to baseline ✓");
    }

    if let Ok(path) = std::env::var("SGS_BENCH_JSON") {
        let mut rows = String::new();
        for r in &results {
            rows.push_str(&format!(
                "    {{\"shards\": {}, \"wall_seq_ns\": {}, \"critical_path_ns\": {}, \"wall_auto_ns\": {}, \"speedup_critical_vs_baseline\": {:.2}, \"speedup_wall_auto_vs_baseline\": {:.2}, \"shard_load_ns\": {:?}}},\n",
                r.shards,
                r.wall_seq_ns,
                r.critical_ns,
                r.wall_auto_ns,
                baseline_ns as f64 / r.critical_ns as f64,
                baseline_ns as f64 / r.wall_auto_ns as f64,
                r.shard_load_ns,
            ));
        }
        rows.pop();
        rows.pop(); // trailing ",\n"
        let json = format!(
            "{{\n  \"description\": \"Sharded stream pipeline (per-shard QueryRouters over a hash-partitioned ShardedFeed) vs the single-router baseline (the pass over a one-shard feed), relaxed-f3 insertion workload. critical_path_ns = sum over passes of the slowest shard's isolated feed time = pass latency of a one-core-per-shard deployment; wall_auto_ns = actual wall clock under the default execution policy on this host. shard_load_ns = mean total feed nanos per shard over the timed iterations (RouterArena::shard_pass_nanos) - the per-shard load histogram behind the shard-aware-placement roadmap item. Regenerate: SGS_BENCH_JSON=<path> cargo bench -p sgs-bench --bench sharded\",\n  \"workload\": \"triangle bank, Relaxed f3, {trials} trials, gnm(800, 12000), 3 captured rounds, {updates} stream updates per answer set\",\n  \"host_cores\": {cores},\n  \"samples\": {samples}, \"statistic\": \"min over samples (additive scheduler noise on this box)\",\n  \"baseline_pr1_router_ns\": {baseline_ns},\n  \"sharded\": [\n{rows}\n  ]\n}}\n",
            trials = trials,
            updates = updates_per_set,
            cores = cores,
            samples = samples,
            baseline_ns = baseline_ns,
            rows = rows,
        );
        std::fs::write(&path, json).expect("write bench json");
        println!("wrote {path}");
    }
}
