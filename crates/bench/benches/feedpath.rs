//! Feed-path bench: per-update cost of the scalar vs the blocked hot
//! path, at each layer the block-oriented rework touched.
//!
//! Four sections:
//!
//! * **ℓ₀ bank** — the turnstile repetition bank, per update, across
//!   repetition counts. Three variants: the pre-SoA array-of-structs
//!   layout (replicated locally, the *scalar baseline*), the SoA bank
//!   driven per update, and the SoA bank driven in blocks
//!   (`L0Sampler::update_batch`). The acceptance bar for the rework is
//!   ≥ 1.5× blocked-vs-AoS throughput at R ≥ 16.
//! * **FlatIndex probes** — scalar `get` loop vs `probe_batch` on a
//!   mixed hit/miss key stream (the `f4` adjacency path of insertion
//!   passes).
//! * **Router passes** — whole captured estimator rounds answered
//!   through `answer_{insertion,turnstile}_batch_with_block` at block 0
//!   (scalar) and several block sizes: the end-to-end per-update cost.
//! * **Sharded composition** — the blocked path under 1 and 4 feed
//!   shards (critical-path pass latency, per-shard isolated timing),
//!   showing the block win composes with PR 2's shard scaling.
//!
//! Run `cargo bench -p sgs-bench --bench feedpath` (add `smoke` for the
//! CI-sized configuration). Set `SGS_BENCH_JSON=<path>` to write the
//! machine-readable record committed as `BENCH_feedpath.json`.

use sgs_core::fgp::{SamplerMode, SamplerPlan, SubgraphSampler};
use sgs_graph::{gen, Pattern};
use sgs_query::exec::answer_batch;
use sgs_query::sharded::answer_batch_sharded;
use sgs_query::{ExecPolicy, Model, Parallel, PassOpts, Query, RoundAdaptive, RouterArena};
use sgs_stream::flat::{FlatIndex, ABSENT};
use sgs_stream::hash::{split_seed, splitmix64, FastRng, SeededHash};
use sgs_stream::l0::L0Sampler;
use sgs_stream::{EdgeStream, InsertionStream, ShardedFeed, TurnstileStream};
use std::hint::black_box;
use std::time::Instant;

/// Noise-robust sample statistic: minimum (scheduler noise on this box
/// is strictly additive; see the sharded bench notes).
fn time<F: FnMut()>(samples: usize, mut f: F) -> u64 {
    let mut ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        f();
        ns.push(t0.elapsed().as_nanos() as u64);
    }
    ns.into_iter().min().unwrap_or(0)
}

// ---------------------------------------------------------------------
// The pre-SoA array-of-structs ℓ₀ bank, replicated verbatim: the scalar
// baseline the acceptance criterion is measured against.

#[derive(Clone, Copy, Default)]
struct OneSparse {
    count: i64,
    key_sum: i128,
    fingerprint: u64,
}

struct AosRepetition {
    level_salt: u64,
    fp_salt: u64,
    levels: Vec<OneSparse>,
}

struct AosL0 {
    base_hash: SeededHash,
    reps: Vec<AosRepetition>,
}

impl AosL0 {
    fn new(max_level: u32, reps: usize, seed: u64) -> Self {
        AosL0 {
            base_hash: SeededHash::new(split_seed(seed, 99)),
            reps: (0..reps)
                .map(|i| {
                    let s = split_seed(seed, 100 + i as u64);
                    AosRepetition {
                        level_salt: split_seed(s, 0),
                        fp_salt: split_seed(s, 1),
                        levels: vec![OneSparse::default(); max_level as usize + 1],
                    }
                })
                .collect(),
        }
    }

    #[inline]
    fn update(&mut self, key: u64, delta: i64) {
        let base = self.base_hash.hash64(key);
        for r in &mut self.reps {
            let max = (r.levels.len() - 1) as u32;
            let lvl = splitmix64(base ^ r.level_salt).trailing_zeros().min(max);
            let fp = splitmix64(base ^ r.fp_salt);
            for l in 0..=lvl as usize {
                let d = &mut r.levels[l];
                d.count += delta;
                d.key_sum += key as i128 * delta as i128;
                d.fingerprint = d.fingerprint.wrapping_add((delta as u64).wrapping_mul(fp));
            }
        }
    }

    fn checksum(&self) -> u64 {
        self.reps
            .iter()
            .flat_map(|r| r.levels.iter())
            .fold(0u64, |a, d| {
                a.wrapping_add(d.fingerprint)
                    .wrapping_add(d.count as u64)
                    .wrapping_add(d.key_sum as u64)
            })
    }
}

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

struct L0Row {
    reps: usize,
    aos_ns: f64,
    soa_scalar_ns: f64,
    blocked: Vec<(usize, f64)>,
}

fn bench_l0(
    reps_sweep: &[usize],
    blocks: &[usize],
    n_updates: usize,
    samples: usize,
) -> Vec<L0Row> {
    println!("\n== turnstile ℓ₀ repetition bank ({n_updates} updates, max_level 30) ==");
    let updates = l0_updates(n_updates, 0x10);
    let mut rows = Vec::new();
    for &reps in reps_sweep {
        let seed = 0x10aa ^ reps as u64;
        // AoS scalar baseline.
        let mut aos_best = u64::MAX;
        for _ in 0..samples {
            let mut s = AosL0::new(30, reps, seed);
            let t0 = Instant::now();
            for &(k, d) in &updates {
                s.update(k, d);
            }
            aos_best = aos_best.min(t0.elapsed().as_nanos() as u64);
            black_box(s.checksum());
        }
        // SoA bank, per-update scalar path.
        let mut soa_best = u64::MAX;
        let mut soa_sample = None;
        for _ in 0..samples {
            let mut s = L0Sampler::new(30, reps, seed);
            let t0 = Instant::now();
            for &(k, d) in &updates {
                s.update(k, d);
            }
            soa_best = soa_best.min(t0.elapsed().as_nanos() as u64);
            soa_sample = black_box(s.sample());
        }
        // SoA bank, blocked path.
        let mut blocked = Vec::new();
        for &block in blocks {
            let mut blk_best = u64::MAX;
            for _ in 0..samples {
                let mut s = L0Sampler::new(30, reps, seed);
                let t0 = Instant::now();
                for chunk in updates.chunks(block) {
                    s.update_batch(chunk);
                }
                blk_best = blk_best.min(t0.elapsed().as_nanos() as u64);
                // Honesty check: the blocked state answers like the scalar.
                assert_eq!(black_box(s.sample()), soa_sample);
            }
            blocked.push((block, blk_best as f64 / n_updates as f64));
        }
        let row = L0Row {
            reps,
            aos_ns: aos_best as f64 / n_updates as f64,
            soa_scalar_ns: soa_best as f64 / n_updates as f64,
            blocked,
        };
        let best_blk = row
            .blocked
            .iter()
            .map(|&(_, ns)| ns)
            .fold(f64::MAX, f64::min);
        println!(
            "R={:<3} aos {:>6.1} ns/upd   soa-scalar {:>6.1} ns/upd ({:.2}x)   soa-blocked best {:>6.1} ns/upd ({:.2}x)",
            row.reps,
            row.aos_ns,
            row.soa_scalar_ns,
            row.aos_ns / row.soa_scalar_ns,
            best_blk,
            row.aos_ns / best_blk,
        );
        rows.push(row);
    }
    rows
}

struct ProbeRow {
    block: usize,
    ns_per_probe: f64,
}

fn bench_probe(blocks: &[usize], n_probes: usize, samples: usize) -> (f64, Vec<ProbeRow>) {
    println!("\n== FlatIndex probes (4096-key table, {n_probes} probes, ~50% hits) ==");
    let mut ix = FlatIndex::with_capacity(4096);
    for k in 0..4096u64 {
        ix.insert_or_get(k * 2 + 1); // odd keys present
    }
    let mut rng = FastRng::seed_from_u64(7);
    let probes: Vec<u64> = (0..n_probes).map(|_| rng.gen_range(0..8192u64)).collect();
    let expect: u64 = probes
        .iter()
        .map(|&k| ix.get(k).unwrap_or(ABSENT) as u64)
        .sum();

    let scalar_ns = time(samples, || {
        let mut acc = 0u64;
        for &k in &probes {
            acc += ix.get(k).unwrap_or(ABSENT) as u64;
        }
        assert_eq!(acc, expect);
    });
    let scalar = scalar_ns as f64 / n_probes as f64;
    println!("scalar get        {scalar:>6.2} ns/probe");

    let mut out: Vec<u32> = Vec::new();
    let mut rows = Vec::new();
    for &block in blocks {
        let ns = time(samples, || {
            let mut acc = 0u64;
            for chunk in probes.chunks(block) {
                ix.probe_batch(chunk, &mut out);
                acc += out.iter().map(|&id| id as u64).sum::<u64>();
            }
            assert_eq!(acc, expect);
        });
        let per = ns as f64 / n_probes as f64;
        println!(
            "probe_batch/{block:<5} {per:>6.2} ns/probe ({:.2}x)",
            scalar / per
        );
        rows.push(ProbeRow {
            block,
            ns_per_probe: per,
        });
    }
    (scalar, rows)
}

/// Capture the real per-round batches of one estimator run.
fn capture_batches(
    trials: usize,
    stream: &impl EdgeStream,
    mode: SamplerMode,
    bank_seed: u64,
    exec_seed: u64,
    turnstile: bool,
) -> Vec<(Vec<Query>, u64)> {
    let plan = SamplerPlan::new(&Pattern::triangle()).unwrap();
    let mut par = Parallel::new(
        (0..trials)
            .map(|i| SubgraphSampler::new(plan.clone(), mode, split_seed(bank_seed, i as u64)))
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
        let (a, _) = if turnstile {
            answer_batch(
                Model::Turnstile,
                &batch,
                stream,
                pass_seed,
                PassOpts::with_block(0),
            )
        } else {
            answer_batch(
                Model::Insertion,
                &batch,
                stream,
                pass_seed,
                PassOpts::with_block(0),
            )
        };
        batches.push((batch, pass_seed));
        answers = a;
    }
    batches
}

struct PassRow {
    block: usize,
    ns_per_update: f64,
}

fn bench_pass(
    label: &str,
    batches: &[(Vec<Query>, u64)],
    stream: &impl EdgeStream,
    blocks: &[usize],
    samples: usize,
    turnstile: bool,
) -> (f64, Vec<PassRow>) {
    let updates = (batches.len() * stream.len()) as u64;
    let model = if turnstile {
        Model::Turnstile
    } else {
        Model::Insertion
    };
    let feed = ShardedFeed::partition(stream, 1);
    let mut arena = RouterArena::new();
    let mut run_set = |block: usize| {
        for (batch, seed) in batches {
            black_box(answer_batch_sharded(
                model,
                batch.clone(),
                &feed,
                *seed,
                &mut arena,
                PassOpts::with_block(block),
                ExecPolicy::serial(),
            ));
        }
    };
    run_set(0); // warm-up
    let scalar = time(samples, || run_set(0)) as f64 / updates as f64;
    println!("{label:<30} scalar  {scalar:>8.1} ns/upd");
    let mut rows = Vec::new();
    for &block in blocks {
        run_set(block);
        let per = time(samples, || run_set(block)) as f64 / updates as f64;
        println!(
            "{label:<30} /{block:<6} {per:>8.1} ns/upd ({:.2}x)",
            scalar / per
        );
        rows.push(PassRow {
            block,
            ns_per_update: per,
        });
    }
    (scalar, rows)
}

struct ShardRow {
    shards: usize,
    block: usize,
    critical_ns: u64,
    shard_load_ns: Vec<u64>,
}

/// Critical path (Σ over passes of the slowest shard) plus per-shard
/// total feed nanos, workers forced sequential so each shard is timed
/// in isolation.
fn bench_sharded_composition(
    batches: &[(Vec<Query>, u64)],
    stream: &InsertionStream,
    shard_counts: &[usize],
    blocks: &[usize],
    samples: usize,
) -> Vec<ShardRow> {
    println!("\n== sharded composition (critical-path pass latency, workers sequential) ==");
    let mut rows = Vec::new();
    for &shards in shard_counts {
        let feed = ShardedFeed::partition(stream, shards);
        for &block in blocks {
            let opts = PassOpts::with_block(block);
            let policy = ExecPolicy::serial();
            let mut arena = RouterArena::new();
            for _ in 0..2 {
                for (batch, seed) in batches {
                    black_box(answer_batch_sharded(
                        Model::Insertion,
                        batch.to_vec(),
                        &feed,
                        *seed,
                        &mut arena,
                        opts,
                        policy,
                    ));
                }
            }
            let _ = arena.take_shard_pass_nanos();
            for _ in 0..samples {
                for (batch, seed) in batches {
                    black_box(answer_batch_sharded(
                        Model::Insertion,
                        batch.to_vec(),
                        &feed,
                        *seed,
                        &mut arena,
                        opts,
                        policy,
                    ));
                }
            }
            let nanos = arena.take_shard_pass_nanos();
            let passes = nanos[0].len() / samples;
            let critical_ns = (0..samples)
                .map(|it| {
                    (it * passes..(it + 1) * passes)
                        .map(|e| nanos.iter().map(|s| s[e]).max().unwrap_or(0))
                        .sum::<u64>()
                })
                .min()
                .unwrap_or(0);
            // Per-shard load: total feed nanos per shard across one
            // best-effort iteration set (the histogram groundwork for
            // shard-aware trial placement).
            let shard_load_ns: Vec<u64> = nanos
                .iter()
                .map(|s| s.iter().sum::<u64>() / samples as u64)
                .collect();
            println!(
                "shards {shards} block {:<6} critical {:>10.2} ms  load {:?} µs",
                if block == 0 {
                    "scalar".to_string()
                } else {
                    block.to_string()
                },
                critical_ns as f64 / 1e6,
                shard_load_ns.iter().map(|&n| n / 1000).collect::<Vec<_>>(),
            );
            rows.push(ShardRow {
                shards,
                block,
                critical_ns,
                shard_load_ns,
            });
        }
    }
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a.contains("smoke"));
    let (l0_updates_n, reps_sweep, probe_n, ins_trials, tst_trials, samples): (
        usize,
        &[usize],
        usize,
        usize,
        usize,
        usize,
    ) = if smoke {
        (20_000, &[16], 32_768, 1_000, 150, 3)
    } else {
        (60_000, &[8, 16, 32], 131_072, 4_000, 600, 9)
    };
    let blocks: &[usize] = &[16, 64, 256];
    println!("feedpath bench: scalar vs blocked hot path (samples={samples}, statistic=min)");

    let l0_rows = bench_l0(reps_sweep, blocks, l0_updates_n, samples);
    let (probe_scalar, probe_rows) = bench_probe(blocks, probe_n, samples);

    println!("\n== captured estimator passes (triangle bank, gnm(600, 9000)) ==");
    let g = gen::gnm(600, 9_000, 3);
    let ins = InsertionStream::from_graph(&g, 4);
    let ins_batches = capture_batches(ins_trials, &ins, SamplerMode::Relaxed, 7, 5, false);
    let (ins_scalar, ins_rows) = bench_pass(
        &format!("insertion relaxed-f3 ({ins_trials} trials)"),
        &ins_batches,
        &ins,
        blocks,
        samples,
        false,
    );
    let tst = TurnstileStream::from_graph_with_churn(&g, 0.5, 6);
    let tst_batches = capture_batches(tst_trials, &tst, SamplerMode::Relaxed, 8, 9, true);
    let (tst_scalar, tst_rows) = bench_pass(
        &format!("turnstile relaxed-f3 ({tst_trials} trials)"),
        &tst_batches,
        &tst,
        blocks,
        samples,
        true,
    );

    let shard_rows = bench_sharded_composition(&ins_batches, &ins, &[1, 4], &[0, 64], samples);

    // Equivalence spot check: one full blocked answer set must equal the
    // scalar one (the test suites prove this exhaustively; keep the bench
    // honest about what it measured).
    for (batch, seed) in &ins_batches {
        let (a, _) = answer_batch(
            Model::Insertion,
            batch,
            &ins,
            *seed,
            PassOpts::with_block(0),
        );
        let (b, _) = answer_batch(
            Model::Insertion,
            batch,
            &ins,
            *seed,
            PassOpts::with_block(64),
        );
        assert_eq!(a, b, "blocked insertion answers diverged from scalar");
    }
    for (batch, seed) in &tst_batches {
        let (a, _) = answer_batch(
            Model::Turnstile,
            batch,
            &tst,
            *seed,
            PassOpts::with_block(0),
        );
        let (b, _) = answer_batch(
            Model::Turnstile,
            batch,
            &tst,
            *seed,
            PassOpts::with_block(64),
        );
        assert_eq!(a, b, "blocked turnstile answers diverged from scalar");
    }
    println!("\nequivalence check: blocked answers identical to scalar ✓");

    if let Ok(path) = std::env::var("SGS_BENCH_JSON") {
        let mut l0_json = String::new();
        for r in &l0_rows {
            let blocked: Vec<String> = r
                .blocked
                .iter()
                .map(|&(b, ns)| format!("{{\"block\": {b}, \"ns_per_update\": {ns:.2}}}"))
                .collect();
            let best_blk = r.blocked.iter().map(|&(_, ns)| ns).fold(f64::MAX, f64::min);
            l0_json.push_str(&format!(
                "    {{\"reps\": {}, \"aos_scalar_ns_per_update\": {:.2}, \"soa_scalar_ns_per_update\": {:.2}, \"soa_blocked\": [{}], \"speedup_blocked_vs_aos_scalar\": {:.2}}},\n",
                r.reps,
                r.aos_ns,
                r.soa_scalar_ns,
                blocked.join(", "),
                r.aos_ns / best_blk,
            ));
        }
        let l0_json = l0_json.trim_end().trim_end_matches(',').to_string();
        let probe_json: Vec<String> = probe_rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"block\": {}, \"ns_per_probe\": {:.3}, \"speedup_vs_scalar\": {:.2}}}",
                    r.block,
                    r.ns_per_probe,
                    probe_scalar / r.ns_per_probe
                )
            })
            .collect();
        let pass_json = |scalar: f64, rows: &[PassRow]| -> String {
            let rows: Vec<String> = rows
                .iter()
                .map(|r| {
                    format!(
                        "      {{\"block\": {}, \"ns_per_update\": {:.1}, \"speedup_vs_scalar\": {:.2}}}",
                        r.block,
                        r.ns_per_update,
                        scalar / r.ns_per_update
                    )
                })
                .collect();
            format!(
                "{{\"scalar_ns_per_update\": {:.1}, \"blocked\": [\n{}\n    ]}}",
                scalar,
                rows.join(",\n")
            )
        };
        let shard_json: Vec<String> = shard_rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"shards\": {}, \"block\": {}, \"critical_path_ns\": {}, \"shard_load_ns\": {:?}}}",
                    r.shards, r.block, r.critical_ns, r.shard_load_ns
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"description\": \"Block-oriented feed path vs scalar per-update path. l0_bank: the turnstile repetition bank per update — aos_scalar replicates the pre-SoA Vec<Repetition> layout (the scalar baseline), soa_scalar is the SoA bank driven one update at a time, soa_blocked drives it through update_batch. flat_probe: FlatIndex::get vs probe_batch, 4096-key table, ~50% hit rate. passes: whole captured triangle-bank rounds answered at block 0 (scalar) vs blocked sizes, end-to-end ns per stream update. sharded: critical-path pass latency (per-shard isolated timing) of the sharded insertion path at scalar vs block 64, plus per-shard total feed nanos (shard_load_ns — the load histogram groundwork for shard-aware trial placement). Statistic: min over samples. Regenerate: RUSTFLAGS='-C target-cpu=native' SGS_BENCH_JSON=<path> cargo bench -p sgs-bench --bench feedpath\",\n  \"rustflags\": \"{rustflags}\",\n  \"samples\": {samples},\n  \"l0_bank\": [\n{l0_json}\n  ],\n  \"flat_probe\": {{\"scalar_ns_per_probe\": {probe_scalar:.3}, \"blocked\": [\n{probe}\n  ]}},\n  \"insertion_pass\": {ins},\n  \"turnstile_pass\": {tst},\n  \"sharded_composition\": [\n{shard}\n  ]\n}}\n",
            rustflags = std::env::var("RUSTFLAGS").unwrap_or_default(),
            samples = samples,
            l0_json = l0_json,
            probe_scalar = probe_scalar,
            probe = probe_json.join(",\n"),
            ins = pass_json(ins_scalar, &ins_rows),
            tst = pass_json(tst_scalar, &tst_rows),
            shard = shard_json.join(",\n"),
        );
        std::fs::write(&path, json).expect("write bench json");
        println!("wrote {path}");
    }
}
