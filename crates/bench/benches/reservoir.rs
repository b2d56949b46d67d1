//! Reservoir bench: per-offer scalar oracle vs the skip-ahead SoA bank,
//! at the two layers the rework touched.
//!
//! Three sections:
//!
//! * **Coin throughput** — the raw RNG floor: `gen_range` (the per-offer
//!   acceptance draw), scalar `gen_unit_f64`, and batched
//!   `fill_unit_f64` (the gap-redraw coin), ns per draw.
//! * **Direct bank** — the Theorem-9 `f1` emulator shape: a `k`-lane
//!   [`ReservoirBank`] absorbing `m` offers through `offer_batch`, in
//!   `offer` mode (the scalar per-draw baseline, in-file) and `skip`
//!   mode. Reports pass nanos and **counted** RNG draws per pass
//!   (`rng_draws()`): the acceptance bar is draws dropping from exactly
//!   `k·m` to `O(k·log m)`.
//! * **Router-fed passes** — whole captured relaxed-f3 insertion rounds
//!   answered through `answer_insertion_batch_with_opts` at
//!   k = 1k/8k/32k trials, per-offer vs skip-ahead (both on the default
//!   blocked feed path; the knob is orthogonal to blocking). The
//!   acceptance bar is ≥ 2× whole-pass speedup on the reservoir-bound
//!   (RandomNeighbor-carrying) rounds at k ≥ 8k. Per-round reservoir
//!   draws are counted through `insertion_pass_reservoir_draws`.
//!
//! Run `cargo bench -p sgs-bench --bench reservoir` (add `smoke` for the
//! CI-sized configuration). Set `SGS_BENCH_JSON=<path>` to write the
//! machine-readable record committed as `BENCH_reservoir.json`
//! (recorded with `RUSTFLAGS="-C target-cpu=native"`, like
//! `BENCH_feedpath.json`).

use sgs_core::fgp::{SamplerMode, SamplerPlan, SubgraphSampler};
use sgs_graph::{gen, Pattern};
use sgs_query::exec::{answer_batch, insertion_pass_reservoir_draws, PassOpts};
use sgs_query::sharded::answer_batch_sharded;
use sgs_query::{ExecPolicy, Model, Parallel, Query, ReservoirMode, RoundAdaptive, RouterArena};
use sgs_stream::hash::{split_seed, FastRng};
use sgs_stream::reservoir::ReservoirBank;
use sgs_stream::{EdgeStream, InsertionStream, ShardedFeed};
use std::hint::black_box;
use std::time::Instant;

/// Noise-robust sample statistic: minimum (scheduler noise on this box
/// is strictly additive; see the sharded bench notes).
fn time<F: FnMut()>(samples: usize, mut f: F) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..samples {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best
}

fn bench_coins(samples: usize) -> (f64, f64, f64) {
    println!("\n== coin throughput (1M draws) ==");
    let n = 1_000_000usize;
    let range_ns = time(samples, || {
        let mut r = FastRng::seed_from_u64(1);
        let mut acc = 0u64;
        for i in 1..=n as u64 {
            acc += r.gen_range(0..i);
        }
        black_box(acc);
    }) as f64
        / n as f64;
    let unit_ns = time(samples, || {
        let mut r = FastRng::seed_from_u64(2);
        let mut acc = 0.0;
        for _ in 0..n {
            acc += r.gen_unit_f64();
        }
        black_box(acc);
    }) as f64
        / n as f64;
    let mut buf = vec![0.0f64; 4096];
    let fill_ns = time(samples, || {
        let mut r = FastRng::seed_from_u64(3);
        let mut acc = 0.0;
        for _ in 0..n / buf.len() {
            r.fill_unit_f64(&mut buf);
            acc += buf[0] + buf[buf.len() - 1];
        }
        black_box(acc);
    }) as f64
        / n as f64;
    println!("gen_range      {range_ns:>6.2} ns/draw");
    println!("gen_unit_f64   {unit_ns:>6.2} ns/draw");
    println!("fill_unit_f64  {fill_ns:>6.2} ns/draw (4096-lane blocks)");
    (range_ns, unit_ns, fill_ns)
}

struct BankRow {
    k: usize,
    offer_ns: u64,
    skip_ns: u64,
    offer_draws: u64,
    skip_draws: u64,
}

fn bench_direct_bank(ks: &[usize], m: usize, samples: usize) -> Vec<BankRow> {
    println!("\n== direct SoA bank: k lanes x {m} offers (offer_batch, block 256) ==");
    let items: Vec<u64> = (0..m as u64).collect();
    let mut rows = Vec::new();
    for &k in ks {
        let run = |mode: ReservoirMode| -> (u64, u64, u64) {
            let mut draws = 0;
            let mut checksum = 0u64;
            let ns = time(samples, || {
                let mut bank: ReservoirBank<u64> =
                    ReservoirBank::with_mode(k, 0xba ^ k as u64, mode);
                for chunk in items.chunks(256) {
                    bank.offer_batch(chunk);
                }
                draws = bank.rng_draws();
                checksum = bank.samples_iter().map(|s| s.unwrap()).sum();
                black_box(&bank);
            });
            (ns, draws, checksum)
        };
        let (offer_ns, offer_draws, _) = run(ReservoirMode::Offer);
        let (skip_ns, skip_draws, _) = run(ReservoirMode::Skip);
        assert_eq!(offer_draws, (k * m) as u64, "oracle draws exactly k·m");
        // H_m ≈ ln m + γ; the skip bank must sit near k·H_m, counted.
        let h_m = (m as f64).ln() + 0.5772;
        assert!(
            (skip_draws as f64) < 3.0 * k as f64 * h_m,
            "skip draws {skip_draws} not O(k log m)"
        );
        println!(
            "k={k:<6} offer {:>9.2} ms ({offer_draws:>10} draws)   skip {:>9.2} ms ({skip_draws:>8} draws)   {:.2}x time, {:.0}x fewer draws",
            offer_ns as f64 / 1e6,
            skip_ns as f64 / 1e6,
            offer_ns as f64 / skip_ns as f64,
            offer_draws as f64 / skip_draws as f64,
        );
        rows.push(BankRow {
            k,
            offer_ns,
            skip_ns,
            offer_draws,
            skip_draws,
        });
    }
    rows
}

/// Capture the real per-round batches of one relaxed-mode estimator run.
fn capture_batches(
    trials: usize,
    stream: &impl EdgeStream,
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

struct PassRow {
    k: usize,
    round: usize,
    nbr_queries: usize,
    offer_ns: u64,
    skip_ns: u64,
    offer_draws: u64,
    skip_draws: u64,
}

fn bench_router_fed(ks: &[usize], stream: &InsertionStream, samples: usize) -> Vec<PassRow> {
    println!("\n== router-fed relaxed-f3 insertion passes (triangle bank, default block) ==");
    let feed = ShardedFeed::partition(stream, 1);
    let mut arena = RouterArena::new();
    let mut rows = Vec::new();
    for &k in ks {
        let batches = capture_batches(k, stream, 7 ^ k as u64, 5 ^ k as u64);
        for (round, (batch, seed)) in batches.iter().enumerate() {
            let nbr_queries = batch
                .iter()
                .filter(|q| matches!(q, Query::RandomNeighbor(_)))
                .count();
            let mut run = |mode: ReservoirMode| {
                let opts = PassOpts::with_reservoir(mode);
                let mut pass = || {
                    black_box(answer_batch_sharded(
                        Model::Insertion,
                        batch.clone(),
                        &feed,
                        *seed,
                        &mut arena,
                        opts,
                        ExecPolicy::serial(),
                    ));
                };
                // Warm-up, then timed.
                pass();
                let ns = time(samples, pass);
                let draws = insertion_pass_reservoir_draws(batch, stream, *seed, opts);
                (ns, draws)
            };
            let (offer_ns, offer_draws) = run(ReservoirMode::Offer);
            let (skip_ns, skip_draws) = run(ReservoirMode::Skip);
            println!(
                "k={k:<6} round {round} ({nbr_queries:>6} nbr queries)  offer {:>9.2} ms ({offer_draws:>9} draws)  skip {:>9.2} ms ({skip_draws:>7} draws)  {:.2}x",
                offer_ns as f64 / 1e6,
                skip_ns as f64 / 1e6,
                offer_ns as f64 / skip_ns as f64,
            );
            rows.push(PassRow {
                k,
                round,
                nbr_queries,
                offer_ns,
                skip_ns,
                offer_draws,
                skip_draws,
            });
        }
    }
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a.contains("smoke"));
    // Router-fed workload: m ≫ n (average degree ~600), the dense
    // regime the paper's m^{3/2} trial bounds target and the shape where
    // reservoir offers dominate pass cost. Each pooled sampler is
    // offered ~deg(v) edges, so offers-per-lane is large and the
    // skip-ahead asymptotics (H_deg draws instead of deg) actually
    // bite; on a sparse graph (deg ≈ 30) there is almost nothing to
    // skip — acceptances land every few offers — and both modes are
    // routing-bound (the smoke configuration records that regime).
    let (bank_ks, bank_m, pass_ks, pass_n, pass_m, samples): (
        &[usize],
        usize,
        &[usize],
        usize,
        usize,
        usize,
    ) = if smoke {
        (&[1_000], 20_000, &[1_000], 600, 9_000, 3)
    } else {
        (
            &[1_000, 8_000, 32_000],
            60_000,
            &[1_000, 8_000, 32_000],
            1_500,
            600_000,
            5,
        )
    };
    println!("reservoir bench: per-offer oracle vs skip-ahead SoA bank (samples={samples}, statistic=min)");

    let (range_ns, unit_ns, fill_ns) = bench_coins(samples);
    let bank_rows = bench_direct_bank(bank_ks, bank_m, samples);

    println!("\n== captured estimator workload: gnm({pass_n}, {pass_m}) ==");
    let g = gen::gnm(pass_n, pass_m, 3);
    let ins = InsertionStream::from_graph(&g, 4);
    let pass_rows = bench_router_fed(pass_ks, &ins, samples);

    // Honesty checks: within a mode the blocked default answers equal the
    // scalar path; across modes, skip consumed far fewer counted draws on
    // every reservoir-carrying round.
    {
        let batches = capture_batches(
            pass_ks[0],
            &ins,
            7 ^ pass_ks[0] as u64,
            5 ^ pass_ks[0] as u64,
        );
        for (batch, seed) in &batches {
            for mode in [ReservoirMode::Offer, ReservoirMode::Skip] {
                let (a, _) = answer_batch(
                    Model::Insertion,
                    batch,
                    &ins,
                    *seed,
                    PassOpts::with_block(0).reservoir(mode),
                );
                let (b, _) = answer_batch(
                    Model::Insertion,
                    batch,
                    &ins,
                    *seed,
                    PassOpts::with_reservoir(mode),
                );
                assert_eq!(a, b, "blocked answers diverged from scalar in {mode:?}");
            }
        }
        for r in &pass_rows {
            if r.nbr_queries > 0 {
                assert!(
                    r.skip_draws * 4 < r.offer_draws,
                    "k={} round {}: skip draws {} not far below offer draws {}",
                    r.k,
                    r.round,
                    r.skip_draws,
                    r.offer_draws
                );
            }
        }
        println!("\nequivalence checks: blocked==scalar per mode, skip draws ≪ offer draws ✓");
    }

    if let Ok(path) = std::env::var("SGS_BENCH_JSON") {
        let bank_json: Vec<String> = bank_rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"k\": {}, \"offers_per_lane\": {bank_m}, \"offer_ns\": {}, \"skip_ns\": {}, \"offer_draws\": {}, \"skip_draws\": {}, \"speedup\": {:.2}, \"draw_reduction\": {:.1}}}",
                    r.k,
                    r.offer_ns,
                    r.skip_ns,
                    r.offer_draws,
                    r.skip_draws,
                    r.offer_ns as f64 / r.skip_ns as f64,
                    r.offer_draws as f64 / r.skip_draws as f64,
                )
            })
            .collect();
        let pass_json: Vec<String> = pass_rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"k\": {}, \"round\": {}, \"nbr_queries\": {}, \"offer_pass_ns\": {}, \"skip_pass_ns\": {}, \"offer_draws\": {}, \"skip_draws\": {}, \"speedup\": {:.2}}}",
                    r.k,
                    r.round,
                    r.nbr_queries,
                    r.offer_ns,
                    r.skip_ns,
                    r.offer_draws,
                    r.skip_draws,
                    r.offer_ns as f64 / r.skip_ns as f64,
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"description\": \"Skip-ahead reservoirs vs the per-offer scalar oracle. coins: raw RNG floor, ns per draw. direct_bank: k-lane SoA ReservoirBank absorbing m offers via offer_batch — offer mode is the in-file scalar baseline (draws exactly k*m, counted via rng_draws()), skip mode precomputes next_accept by the exact integer inverse transform (draws ~ k*H_m, counted). router_fed_passes: whole captured relaxed-f3 insertion rounds (triangle bank, gnm({pass_n},{pass_m}) — m >> n so offers-per-lane is large, the regime where skipping bites — default feed block) answered with each reservoir mode; rounds with nbr_queries > 0 are the reservoir-bound passes the >=2x acceptance bar applies to; draws counted through insertion_pass_reservoir_draws. Statistic: min over samples. Regenerate: RUSTFLAGS='-C target-cpu=native' SGS_BENCH_JSON=<path> cargo bench -p sgs-bench --bench reservoir\",\n  \"rustflags\": \"{rustflags}\",\n  \"samples\": {samples},\n  \"router_workload\": \"gnm({pass_n}, {pass_m}), triangle bank, SamplerMode::Relaxed\",\n  \"coins_ns_per_draw\": {{\"gen_range\": {range_ns:.2}, \"gen_unit_f64\": {unit_ns:.2}, \"fill_unit_f64\": {fill_ns:.2}}},\n  \"direct_bank\": [\n{bank}\n  ],\n  \"router_fed_passes\": [\n{pass}\n  ]\n}}\n",
            rustflags = std::env::var("RUSTFLAGS").unwrap_or_default(),
            samples = samples,
            bank = bank_json.join(",\n"),
            pass = pass_json.join(",\n"),
        );
        std::fs::write(&path, json).expect("write bench json");
        println!("wrote {path}");
    }
}
