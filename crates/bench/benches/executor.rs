//! Executor benchmark: the QueryRouter-based pass emulation vs the frozen
//! pre-refactor reference (`sgs_query::reference`), as the parallel trial
//! count grows.
//!
//! Two views, both recorded in `BENCH_executor.json` (run with
//! `CRITERION_JSON=BENCH_executor.json`):
//!
//! * `insertion_pass/...` — the refactored layer in isolation: the three
//!   *real* merged batches of a triangle-estimator run are captured once,
//!   then each full 3-pass round-trip is re-answered through the router
//!   and through the reference emulation, identical seeds. Throughput is
//!   stream updates per second across the 3 passes; this is the number
//!   the ISSUE's ≥2× acceptance bar refers to.
//! * `insertion_full/...` / `turnstile_full/...` — the end-to-end
//!   estimator (sampler bank + executor), showing how much of the
//!   full-run wall clock the routing layer recovers. The turnstile side
//!   is expected to be near parity: its cost is dominated by the
//!   per-query ℓ₀-sketch updates, which are inherent to the model, not
//!   to routing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sgs_core::fgp::{SamplerMode, SamplerPlan, SubgraphSampler};
use sgs_graph::{gen, Pattern};
use sgs_query::exec::{answer_batch, run_insertion, run_turnstile};
use sgs_query::reference::{
    answer_insertion_batch_reference, run_insertion_reference, run_turnstile_reference,
};
use sgs_query::sharded::answer_batch_sharded;
use sgs_query::{ExecPolicy, Model, Parallel, PassOpts, Query, RoundAdaptive, RouterArena};
use sgs_stream::hash::split_seed;
use sgs_stream::{EdgeStream, InsertionStream, ShardedFeed, TurnstileStream};
use std::hint::black_box;

/// Whether a `cargo bench -- <filter>` substring filter selects `id`.
/// Mirrors the harness's skip logic so expensive setup (batch capture)
/// is not paid for configurations the filter will skip anyway — e.g.
/// CI's `insertion_pass/router/1000` smoke run.
fn filter_selects(id: &str) -> bool {
    match std::env::args().skip(1).find(|a| !a.starts_with('-')) {
        Some(f) => id.contains(f.as_str()),
        None => true,
    }
}

/// The same seeded sampler bank both executors drive — byte-identical
/// inputs, so any measured delta is purely the executor layer.
fn bank(
    pattern: &Pattern,
    mode: SamplerMode,
    trials: usize,
    seed: u64,
) -> Parallel<SubgraphSampler> {
    let plan = SamplerPlan::new(pattern).unwrap();
    Parallel::new(
        (0..trials)
            .map(|i| SubgraphSampler::new(plan.clone(), mode, split_seed(seed, i as u64)))
            .collect(),
    )
}

/// Capture the real per-round batches of one triangle-estimator run by
/// driving the protocol with the production executor.
fn capture_batches(
    trials: usize,
    mode: SamplerMode,
    stream: &InsertionStream,
    bank_seed: u64,
    exec_seed: u64,
) -> Vec<(Vec<Query>, u64)> {
    let mut par = bank(&Pattern::triangle(), mode, trials, bank_seed);
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

fn bench_insertion_pass(c: &mut Criterion) {
    // Stream long enough that per-update routing, not per-round setup,
    // dominates — the regime the ROADMAP's traffic story lives in.
    let g = gen::gnm(2000, 48_000, 3);
    let stream = InsertionStream::from_graph(&g, 4);
    let feed = ShardedFeed::partition(&stream, 1);
    let mut arena = RouterArena::new();
    let mut group = c.benchmark_group("insertion_pass");
    group.sample_size(15);
    for &k in &[1_000usize, 8_000, 32_000] {
        if !filter_selects(&format!("insertion_pass/router/{k}"))
            && !filter_selects(&format!("insertion_pass/reference/{k}"))
        {
            continue;
        }
        let batches = capture_batches(k, SamplerMode::Indexed, &stream, 7, 5);
        let updates: u64 = (batches.len() * stream.len()) as u64;
        group.throughput(Throughput::Elements(updates));
        group.bench_with_input(BenchmarkId::new("router", k), &batches, |b, batches| {
            b.iter(|| {
                for (batch, seed) in batches {
                    black_box(answer_batch_sharded(
                        Model::Insertion,
                        batch.clone(),
                        &feed,
                        *seed,
                        &mut arena,
                        PassOpts::default(),
                        ExecPolicy::serial(),
                    ));
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("reference", k), &batches, |b, batches| {
            b.iter(|| {
                for (batch, seed) in batches {
                    black_box(answer_insertion_batch_reference(batch, &stream, *seed));
                }
            });
        });
    }
    group.finish();
}

/// The relaxed-`f3` workload (Algorithm 5's query mix answered on an
/// insertion-only stream): thousands of pending `RandomNeighbor` queries
/// per pass. This is the per-update pathology the QueryRouter exists
/// for — the pre-refactor executor scans *every* pending neighbor
/// sampler on *every* update, the router dispatches O(1 + hits).
fn bench_insertion_pass_relaxed(c: &mut Criterion) {
    let g = gen::gnm(800, 12_000, 3);
    let stream = InsertionStream::from_graph(&g, 4);
    let feed = ShardedFeed::partition(&stream, 1);
    let mut arena = RouterArena::new();
    let mut group = c.benchmark_group("insertion_pass_relaxed");
    group.sample_size(10);
    for &k in &[1_000usize, 8_000, 32_000] {
        if !filter_selects(&format!("insertion_pass_relaxed/router/{k}"))
            && !filter_selects(&format!("insertion_pass_relaxed/reference/{k}"))
        {
            continue;
        }
        let batches = capture_batches(k, SamplerMode::Relaxed, &stream, 7, 5);
        let updates: u64 = (batches.len() * stream.len()) as u64;
        group.throughput(Throughput::Elements(updates));
        group.bench_with_input(BenchmarkId::new("router", k), &batches, |b, batches| {
            b.iter(|| {
                for (batch, seed) in batches {
                    black_box(answer_batch_sharded(
                        Model::Insertion,
                        batch.clone(),
                        &feed,
                        *seed,
                        &mut arena,
                        PassOpts::default(),
                        ExecPolicy::serial(),
                    ));
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("reference", k), &batches, |b, batches| {
            b.iter(|| {
                for (batch, seed) in batches {
                    black_box(answer_insertion_batch_reference(batch, &stream, *seed));
                }
            });
        });
    }
    group.finish();
}

fn bench_insertion_full(c: &mut Criterion) {
    let g = gen::gnm(2000, 48_000, 3);
    let stream = InsertionStream::from_graph(&g, 4);
    let updates_per_run = 3 * stream.len() as u64;
    let mut group = c.benchmark_group("insertion_full");
    group.sample_size(10);
    for &k in &[1_000usize, 8_000, 32_000] {
        group.throughput(Throughput::Elements(updates_per_run));
        group.bench_with_input(BenchmarkId::new("router", k), &k, |b, &k| {
            b.iter(|| {
                let par = bank(&Pattern::triangle(), SamplerMode::Indexed, k, 7);
                black_box(run_insertion(par, &stream, 5))
            });
        });
        group.bench_with_input(BenchmarkId::new("reference", k), &k, |b, &k| {
            b.iter(|| {
                let par = bank(&Pattern::triangle(), SamplerMode::Indexed, k, 7);
                black_box(run_insertion_reference(par, &stream, 5))
            });
        });
    }
    group.finish();
}

fn bench_turnstile_full(c: &mut Criterion) {
    let g = gen::gnm(150, 900, 11);
    let stream = TurnstileStream::from_graph_with_churn(&g, 1.0, 12);
    let updates_per_run = 3 * stream.len() as u64;
    let mut group = c.benchmark_group("turnstile_full");
    group.sample_size(10);
    for &k in &[200usize, 1_000] {
        group.throughput(Throughput::Elements(updates_per_run));
        group.bench_with_input(BenchmarkId::new("router", k), &k, |b, &k| {
            b.iter(|| {
                let par = bank(&Pattern::triangle(), SamplerMode::Relaxed, k, 17);
                black_box(run_turnstile(par, &stream, 15))
            });
        });
        group.bench_with_input(BenchmarkId::new("reference", k), &k, |b, &k| {
            b.iter(|| {
                let par = bank(&Pattern::triangle(), SamplerMode::Relaxed, k, 17);
                black_box(run_turnstile_reference(par, &stream, 15))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_insertion_pass,
    bench_insertion_pass_relaxed,
    bench_insertion_full,
    bench_turnstile_full
);
criterion_main!(benches);
