//! Survivor-level dispatch bench: the predicated full-bank ℓ₀ feed
//! path (PR 3's blocked baseline) against the dispatch path that walks
//! only the rows a key actually survives to.
//!
//! Two sections:
//!
//! * **ℓ₀ bank** — per-update cost of the repetition bank across
//!   repetition counts R = 8/16/32, four variants: predicated scalar
//!   (`update`), predicated blocked (`update_batch`), dispatch scalar
//!   and dispatch blocked (`update_with` / `update_batch_with` under
//!   [`L0Mode::Dispatch`]). The predicated numbers are the in-file
//!   baseline; a key survives to level ℓ with probability 2^-ℓ, so
//!   dispatch touches E ≈ 2 of the L+1 rows the predicated path scans.
//! * **Turnstile pass** — whole captured estimator rounds answered via
//!   `answer_turnstile_batch_with_opts` under both ℓ₀ modes at block 0
//!   and blocked sizes: end-to-end ns per stream update. The acceptance
//!   bar is ≥ 2× dispatch-vs-predicated at the blocked settings.
//!
//! Every timed state is asserted bit-identical across variants before a
//! number is reported. Run `cargo bench -p sgs-bench --bench l0fast`
//! (add `smoke` for the CI-sized configuration). Set
//! `SGS_BENCH_JSON=<path>` to write the machine-readable record
//! committed as `BENCH_l0fast.json`.

use sgs_core::fgp::{SamplerMode, SamplerPlan, SubgraphSampler};
use sgs_graph::{gen, Pattern};
use sgs_query::exec::answer_batch;
use sgs_query::sharded::answer_batch_sharded;
use sgs_query::{ExecPolicy, L0Mode, Model, Parallel, PassOpts, Query, RoundAdaptive, RouterArena};
use sgs_stream::hash::{split_seed, FastRng};
use sgs_stream::l0::L0Sampler;
use sgs_stream::{EdgeStream, ShardedFeed, TurnstileStream};
use std::hint::black_box;
use std::time::Instant;

fn l0_updates(n: usize, seed: u64) -> Vec<(u64, i64)> {
    let mut rng = FastRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let key = rng.gen_range(1..200_000u64);
            let delta = if i % 5 == 4 { -1 } else { 1 };
            (key, delta)
        })
        .collect()
}

struct ModeCost {
    scalar_ns: f64,
    blocked: Vec<(usize, f64)>,
}

struct BankRow {
    reps: usize,
    predicated: ModeCost,
    dispatch: ModeCost,
}

/// Time one ℓ₀ feed variant end-to-end over the update set, returning
/// the best-of-samples nanos and the drained sample for equivalence.
fn time_bank<F: Fn(&mut L0Sampler)>(
    reps: usize,
    seed: u64,
    samples: usize,
    feed: F,
) -> (u64, Option<u64>) {
    let mut best = u64::MAX;
    let mut out = None;
    for _ in 0..samples {
        let mut s = L0Sampler::new(30, reps, seed);
        let t0 = Instant::now();
        feed(&mut s);
        best = best.min(t0.elapsed().as_nanos() as u64);
        out = black_box(s.sample());
    }
    (best, out)
}

fn bench_bank(reps_sweep: &[usize], blocks: &[usize], n: usize, samples: usize) -> Vec<BankRow> {
    println!("\n== ℓ₀ repetition bank: predicated vs survivor-level dispatch ({n} updates, max_level 30) ==");
    let updates = l0_updates(n, 0x10);
    let per = |ns: u64| ns as f64 / n as f64;
    let mut rows = Vec::new();
    for &reps in reps_sweep {
        let seed = 0x10aa ^ reps as u64;
        let cost = |mode: L0Mode| -> ModeCost {
            let (scalar_ns, scalar_sample) = time_bank(reps, seed, samples, |s| {
                for &(k, d) in &updates {
                    s.update_with(mode, k, d);
                }
            });
            let blocked = blocks
                .iter()
                .map(|&block| {
                    let (ns, sample) = time_bank(reps, seed, samples, |s| {
                        for chunk in updates.chunks(block) {
                            s.update_batch_with(mode, chunk);
                        }
                    });
                    assert_eq!(sample, scalar_sample, "{mode:?}/{block} diverged");
                    (block, per(ns))
                })
                .collect();
            ModeCost {
                scalar_ns: per(scalar_ns),
                blocked,
            }
        };
        let predicated = cost(L0Mode::Predicated);
        let dispatch = cost(L0Mode::Dispatch);
        // Cross-mode honesty check on a fresh pair of states.
        let (_, a) = time_bank(reps, seed, 1, |s| {
            for &(k, d) in &updates {
                s.update_with(L0Mode::Predicated, k, d);
            }
        });
        let (_, b) = time_bank(reps, seed, 1, |s| {
            for chunk in updates.chunks(64) {
                s.update_batch_with(L0Mode::Dispatch, chunk);
            }
        });
        assert_eq!(a, b, "dispatch state diverged from predicated at R={reps}");
        let best = |m: &ModeCost| m.blocked.iter().map(|&(_, ns)| ns).fold(f64::MAX, f64::min);
        println!(
            "R={:<3} predicated scalar {:>6.1} / blocked best {:>6.1} ns/upd   dispatch scalar {:>6.1} ({:.2}x) / blocked best {:>6.1} ns/upd ({:.2}x)",
            reps,
            predicated.scalar_ns,
            best(&predicated),
            dispatch.scalar_ns,
            predicated.scalar_ns / dispatch.scalar_ns,
            best(&dispatch),
            best(&predicated) / best(&dispatch),
        );
        rows.push(BankRow {
            reps,
            predicated,
            dispatch,
        });
    }
    rows
}

/// Capture the real per-round turnstile batches of one estimator run.
fn capture_batches(trials: usize, stream: &TurnstileStream) -> Vec<(Vec<Query>, u64)> {
    let plan = SamplerPlan::new(&Pattern::triangle()).unwrap();
    let mut par = Parallel::new(
        (0..trials)
            .map(|i| {
                SubgraphSampler::new(plan.clone(), SamplerMode::Relaxed, split_seed(8, i as u64))
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
        let pass_seed = split_seed(9, pass);
        let (a, _) = answer_batch(
            Model::Turnstile,
            &batch,
            stream,
            pass_seed,
            PassOpts::oracle(),
        );
        batches.push((batch, pass_seed));
        answers = a;
    }
    batches
}

struct PassRow {
    mode: L0Mode,
    block: usize,
    ns_per_update: f64,
}

fn bench_pass(
    batches: &[(Vec<Query>, u64)],
    stream: &TurnstileStream,
    blocks: &[usize],
    samples: usize,
) -> Vec<PassRow> {
    println!("\n== whole turnstile passes (triangle bank, both ℓ₀ modes) ==");
    let updates = (batches.len() * stream.len()) as u64;
    let feed = ShardedFeed::partition(stream, 1);
    let mut arena = RouterArena::new();
    let mut rows = Vec::new();
    for &mode in &[L0Mode::Predicated, L0Mode::Dispatch] {
        for &block in blocks {
            let opts = PassOpts::with_block(block).l0(mode);
            let mut run_set = || {
                for (batch, seed) in batches {
                    black_box(answer_batch_sharded(
                        Model::Turnstile,
                        batch.clone(),
                        &feed,
                        *seed,
                        &mut arena,
                        opts,
                        ExecPolicy::serial(),
                    ));
                }
            };
            run_set(); // warm-up
            let per = {
                let mut best = u64::MAX;
                for _ in 0..samples {
                    let t0 = Instant::now();
                    run_set();
                    best = best.min(t0.elapsed().as_nanos() as u64);
                }
                best as f64 / updates as f64
            };
            println!(
                "{:<10} block {:<6} {per:>8.1} ns/upd",
                mode.as_str(),
                if block == 0 {
                    "scalar".to_string()
                } else {
                    block.to_string()
                },
            );
            rows.push(PassRow {
                mode,
                block,
                ns_per_update: per,
            });
        }
    }
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a.contains("smoke"));
    let (bank_n, reps_sweep, trials, samples): (usize, &[usize], usize, usize) = if smoke {
        (20_000, &[8], 150, 3)
    } else {
        (60_000, &[8, 16, 32], 600, 9)
    };
    let bank_blocks: &[usize] = &[16, 64, 256];
    let pass_blocks: &[usize] = &[0, 64, 128];
    println!(
        "l0fast bench: predicated vs survivor-level dispatch (samples={samples}, statistic=min)"
    );

    let bank_rows = bench_bank(reps_sweep, bank_blocks, bank_n, samples);

    let g = gen::gnm(600, 9_000, 3);
    let tst = TurnstileStream::from_graph_with_churn(&g, 0.5, 6);
    let batches = capture_batches(trials, &tst);

    // Equivalence first: every answer set must be identical across the
    // four mode × block settings before any timing is trusted.
    for (batch, seed) in &batches {
        let oracle = answer_batch(Model::Turnstile, batch, &tst, *seed, PassOpts::oracle()).0;
        for &mode in &[L0Mode::Predicated, L0Mode::Dispatch] {
            for &block in pass_blocks {
                let opts = PassOpts::with_block(block).l0(mode);
                let got = answer_batch(Model::Turnstile, batch, &tst, *seed, opts).0;
                assert_eq!(got, oracle, "{mode:?}/{block} answers diverged");
            }
        }
    }
    println!("equivalence check: dispatch answers identical to predicated oracle ✓");

    let pass_rows = bench_pass(&batches, &tst, pass_blocks, samples);

    let pass_ns = |mode: L0Mode, block: usize| {
        pass_rows
            .iter()
            .find(|r| r.mode == mode && r.block == block)
            .map(|r| r.ns_per_update)
            .unwrap_or(f64::NAN)
    };
    // Headline ratio at the executor's default block size
    // (`sgs_query::exec::DEFAULT_BLOCK` = 128), predicated vs dispatch.
    let whole_pass_speedup = pass_ns(L0Mode::Predicated, 128) / pass_ns(L0Mode::Dispatch, 128);
    println!("\nwhole-pass dispatch speedup at block 128 (default): {whole_pass_speedup:.2}x");

    if let Ok(path) = std::env::var("SGS_BENCH_JSON") {
        let mode_json = |m: &ModeCost| {
            let blocked: Vec<String> = m
                .blocked
                .iter()
                .map(|&(b, ns)| format!("{{\"block\": {b}, \"ns_per_update\": {ns:.2}}}"))
                .collect();
            format!(
                "{{\"scalar_ns_per_update\": {:.2}, \"blocked\": [{}]}}",
                m.scalar_ns,
                blocked.join(", ")
            )
        };
        let bank_json: Vec<String> = bank_rows
            .iter()
            .map(|r| {
                let best = |m: &ModeCost| {
                    m.blocked.iter().map(|&(_, ns)| ns).fold(f64::MAX, f64::min)
                };
                format!(
                    "    {{\"reps\": {}, \"predicated\": {}, \"dispatch\": {}, \"speedup_dispatch_vs_predicated_blocked\": {:.2}}}",
                    r.reps,
                    mode_json(&r.predicated),
                    mode_json(&r.dispatch),
                    best(&r.predicated) / best(&r.dispatch),
                )
            })
            .collect();
        let pass_json: Vec<String> = pass_rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"l0\": \"{}\", \"block\": {}, \"ns_per_update\": {:.1}}}",
                    r.mode.as_str(),
                    r.block,
                    r.ns_per_update
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"description\": \"Survivor-level dispatch vs the predicated full-bank ℓ₀ feed path. l0_bank: the turnstile repetition bank per update at R=8/16/32 — predicated scans every level row with a masked add (PR 3's blocked baseline, the in-file baseline), dispatch derives each repetition's survivor level from the prehashed block and touches only rows 0..=ℓ (E≈2 of L+1). turnstile_pass: whole captured triangle-bank rounds answered through answer_turnstile_batch_with_opts under both modes, end-to-end ns per stream update; whole_pass_speedup_block128 is the dispatch-vs-predicated ratio at the executor default block size 128 (acceptance bar ≥ 2x). All variants asserted bit-identical in-bench before timing is reported. Statistic: min over samples. Regenerate: RUSTFLAGS='-C target-cpu=native' SGS_BENCH_JSON=<path> cargo bench -p sgs-bench --bench l0fast\",\n  \"rustflags\": \"{rustflags}\",\n  \"samples\": {samples},\n  \"l0_bank\": [\n{bank}\n  ],\n  \"turnstile_pass\": [\n{pass}\n  ],\n  \"whole_pass_speedup_block128\": {speedup:.2}\n}}\n",
            rustflags = std::env::var("RUSTFLAGS").unwrap_or_default(),
            samples = samples,
            bank = bank_json.join(",\n"),
            pass = pass_json.join(",\n"),
            speedup = whole_pass_speedup,
        );
        std::fs::write(&path, json).expect("write bench json");
        println!("wrote {path}");
    }
}
