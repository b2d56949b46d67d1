//! Parallel-runtime bench: the three PR-7 wins, each against the seam
//! it replaced, with equivalence asserted in-bench.
//!
//! * **ring** — ingest-bound counter fan-out at N = 1/2/4 consumers
//!   through the lock-free seqlock `Broadcast` ring vs the retired
//!   `MutexBroadcast` reference ring, both driven by the cooperative
//!   single-core schedule (try-APIs, no threads — reproducible on any
//!   host). The mutex ring pays a lock round-trip plus a `notify_all`
//!   per block on both ends and an `Arc` allocation per push; the
//!   seqlock ring publishes with two release stores and reads with an
//!   acquire pair.
//! * **workers** — a full multi-round relaxed-f3 estimator workload
//!   (the captured real batches, as in `benches/sharded.rs`) through
//!   the per-pass scoped-thread broadcast path (spawn + join every
//!   pass) vs one persistent [`ShardRuntime`] pool fed pass after pass,
//!   both under `ExecPolicy::threaded()`. Also recorded: `wall/auto`,
//!   the default policy on this host (cooperative on a single-core box)
//!   — the pre-PR number the acceptance criterion guards.
//! * **placement** — the same workload on a zipf hub stream, serial
//!   schedule, uniform hash placement vs the greedy
//!   [`ShardMap::balanced`] rebalance computed from
//!   `vertex_delivery_counts()`. Headline number is the critical path
//!   (Σ over passes of the slowest shard's isolated feed time — the
//!   pass latency of a one-core-per-shard deployment); the hottest
//!   shard's delivered-update count is recorded as the load proxy.
//!
//! Run `cargo bench -p sgs-bench --bench parallel` (add `smoke` for the
//! CI-sized configuration). Set `SGS_BENCH_JSON=<path>` to write the
//! machine-readable record committed as `BENCH_parallel.json`.

use sgs_core::fgp::{SamplerMode, SamplerPlan, SubgraphSampler};
use sgs_graph::{gen, Pattern};
use sgs_query::broadcast::{answer_batch_broadcast, BroadcastOpts};
use sgs_query::exec::answer_batch;
use sgs_query::sharded::answer_batch_sharded;
use sgs_query::{
    ExecPolicy, Model, Parallel, PassOpts, Query, RoundAdaptive, RouterArena, ShardRuntime,
};
use sgs_stream::broadcast::{Broadcast, RoutedProducer, TryNext};
use sgs_stream::{InsertionStream, MutexBroadcast, ShardMap, ShardedFeed};
use std::hint::black_box;
use std::time::Instant;

/// Noise-robust sample statistic: minimum (scheduler noise on this box
/// is strictly additive — see `benches/sharded.rs`).
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

fn time<R>(samples: usize, mut f: impl FnMut() -> R) -> u64 {
    black_box(f()); // warm-up
    let mut ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        black_box(f());
        ns.push(t0.elapsed().as_nanos() as u64);
    }
    best(ns)
}

/// Cheap ingest-bound consumer state: tally + key checksum.
#[derive(Default, Clone, Copy, PartialEq, Debug)]
struct Counter {
    updates: u64,
    key_sum: u64,
}

impl Counter {
    #[inline]
    fn absorb(&mut self, key: u64) {
        self.updates += 1;
        self.key_sum = self.key_sum.wrapping_add(key);
    }
}

/// One lock-free ingest, N counter consumers, cooperative schedule.
fn lockfree_counters(feed: &ShardedFeed, n: usize, capacity: usize, block: usize) -> Vec<Counter> {
    let ring = Broadcast::new(capacity);
    let mut consumers: Vec<_> = (0..n)
        .map(|_| (ring.subscribe(), Counter::default(), false))
        .collect();
    let mut producer = RoutedProducer::new(feed, block);
    loop {
        let done = producer.pump(&ring);
        let mut all = true;
        for (c, state, ended) in consumers.iter_mut() {
            while !*ended {
                match c.try_next() {
                    TryNext::Block(b) => {
                        for r in b.iter() {
                            state.absorb(r.update.edge.key());
                        }
                    }
                    TryNext::Pending => break,
                    TryNext::Ended => *ended = true,
                }
            }
            all &= *ended;
        }
        if done && all {
            break;
        }
    }
    consumers.into_iter().map(|(_, s, _)| s).collect()
}

/// The same fan-out through the mutex/condvar reference ring.
fn mutex_counters(feed: &ShardedFeed, n: usize, capacity: usize, block: usize) -> Vec<Counter> {
    let ring = MutexBroadcast::new(capacity);
    let mut consumers: Vec<_> = (0..n)
        .map(|_| (ring.subscribe(), Counter::default(), false))
        .collect();
    let routed = feed.routed();
    let mut off = 0usize;
    let mut finished = false;
    loop {
        while off < routed.len() {
            let end = (off + block.max(1)).min(routed.len());
            if ring.try_push(&routed[off..end]) {
                off = end;
            } else {
                break;
            }
        }
        if off == routed.len() && !finished {
            ring.finish();
            finished = true;
        }
        let mut all = true;
        for (c, state, ended) in consumers.iter_mut() {
            while !*ended {
                match c.try_next() {
                    TryNext::Block(b) => {
                        for r in b.iter() {
                            state.absorb(r.update.edge.key());
                        }
                    }
                    TryNext::Pending => break,
                    TryNext::Ended => *ended = true,
                }
            }
            all &= *ended;
        }
        if finished && all {
            break;
        }
    }
    consumers.into_iter().map(|(_, s, _)| s).collect()
}

/// Capture the real per-round batches of one estimator run by driving
/// the protocol with the production executor (see `benches/sharded.rs`).
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
                    sgs_stream::hash::split_seed(bank_seed, i as u64),
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
        let pass_seed = sgs_stream::hash::split_seed(exec_seed, pass);
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

/// Time the captured answer sets through the per-pass scoped-thread
/// broadcast path (fresh threads every pass).
fn run_spawn_per_pass(
    batches: &[(Vec<Query>, u64)],
    feed: &ShardedFeed,
    samples: usize,
    bcast: BroadcastOpts,
) -> u64 {
    let mut arena = RouterArena::new();
    time(samples, || {
        for (batch, seed) in batches {
            black_box(answer_batch_broadcast(
                Model::Insertion,
                batch.to_vec(),
                feed,
                *seed,
                &mut arena,
                PassOpts::default(),
                bcast,
                &mut [],
            ));
        }
    })
}

/// Time the same answer sets through one persistent worker pool.
fn run_persistent(
    batches: &[(Vec<Query>, u64)],
    feed: &ShardedFeed,
    samples: usize,
    bcast: BroadcastOpts,
) -> u64 {
    let mut arena = RouterArena::new();
    let mut rt = ShardRuntime::new(feed.num_shards(), bcast.policy);
    time(samples, || {
        for (batch, seed) in batches {
            black_box(rt.pass(
                Model::Insertion,
                batch.to_vec(),
                feed,
                *seed,
                &mut arena,
                PassOpts::default(),
                bcast,
                &mut [],
            ));
        }
    })
}

/// Serial sharded run returning (best wall ns, best critical-path ns):
/// critical path = Σ over passes of the slowest shard's isolated feed
/// time (see `benches/sharded.rs` for the derivation).
fn run_serial_critical(
    batches: &[(Vec<Query>, u64)],
    feed: &ShardedFeed,
    samples: usize,
) -> (u64, u64) {
    let mut arena = RouterArena::new();
    let opts = PassOpts::default();
    for _ in 0..2 {
        for (batch, seed) in batches {
            black_box(answer_batch_sharded(
                Model::Insertion,
                batch.to_vec(),
                feed,
                *seed,
                &mut arena,
                opts,
                ExecPolicy::serial(),
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
                ExecPolicy::serial(),
            ));
        }
        walls.push(t0.elapsed().as_nanos() as u64);
    }
    let nanos = arena.take_shard_pass_nanos();
    let passes = nanos[0].len() / samples;
    let criticals: Vec<u64> = (0..samples)
        .map(|it| {
            (it * passes..(it + 1) * passes)
                .map(|e| nanos.iter().map(|s| s[e]).max().unwrap_or(0))
                .sum()
        })
        .collect();
    (best(walls), best(criticals))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a.contains("smoke"));
    let (ring_nv, ring_m, trials, zipf_nv, zipf_m, samples) = if smoke {
        (400usize, 6_000usize, 800usize, 300usize, 4_000usize, 3usize)
    } else {
        (1_000, 60_000, 6_000, 1_500, 30_000, 9)
    };
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let capacity = sgs_stream::broadcast::DEFAULT_RING_CAPACITY;
    let ring_block = sgs_stream::broadcast::DEFAULT_RING_BLOCK;
    println!(
        "parallel bench: ring gnm({ring_nv}, {ring_m}), workers {trials} trials, \
         placement zipf_hub({zipf_nv}, {zipf_m}), host cores {cores}"
    );

    // ── ring: lock-free seqlock vs mutex/condvar, cooperative ────────
    let g = gen::gnm(ring_nv, ring_m, 3);
    let stream = InsertionStream::from_graph(&g, 4);
    let ring_feed = ShardedFeed::partition(&stream, 1);
    assert_eq!(
        lockfree_counters(&ring_feed, 2, capacity, ring_block),
        mutex_counters(&ring_feed, 2, capacity, ring_block),
        "ring implementations disagree on consumer state"
    );
    let mut ring_rows = Vec::new();
    for &n in &[1usize, 2, 4] {
        let mutex_ns = time(samples, || {
            mutex_counters(&ring_feed, n, capacity, ring_block)
        });
        let lockfree_ns = time(samples, || {
            lockfree_counters(&ring_feed, n, capacity, ring_block)
        });
        println!(
            "ring      x{n}: mutex {:>10}  lock-free {:>10}  ({:.2}x)",
            human(mutex_ns),
            human(lockfree_ns),
            mutex_ns as f64 / lockfree_ns as f64
        );
        ring_rows.push((n, mutex_ns, lockfree_ns));
    }

    // ── workers: spawn-per-pass vs persistent pool ───────────────────
    let shards = 4usize;
    let g2 = gen::gnm(800, 12_000, 7);
    let stream2 = InsertionStream::from_graph(&g2, 8);
    let feed2 = ShardedFeed::partition(&stream2, shards);
    let batches = capture_batches(trials, &stream2, 7, 5);
    {
        // Equivalence guard: both scheduled paths reproduce the
        // single-stream answers bit for bit.
        let mut arena = RouterArena::new();
        let mut rt = ShardRuntime::new(shards, ExecPolicy::threaded());
        for (batch, seed) in &batches {
            let (want, _) = answer_batch(
                Model::Insertion,
                batch,
                &stream2,
                *seed,
                PassOpts::default(),
            );
            let (a, _) = answer_batch_broadcast(
                Model::Insertion,
                batch.to_vec(),
                &feed2,
                *seed,
                &mut arena,
                PassOpts::default(),
                BroadcastOpts::with_policy(ExecPolicy::threaded()),
                &mut [],
            );
            let (b, _) = rt.pass(
                Model::Insertion,
                batch.to_vec(),
                &feed2,
                *seed,
                &mut arena,
                PassOpts::default(),
                BroadcastOpts::with_policy(ExecPolicy::threaded()),
                &mut [],
            );
            assert_eq!(a, want, "spawn-per-pass diverged from single stream");
            assert_eq!(b, want, "persistent runtime diverged from single stream");
        }
        println!("equivalence check: both worker schedules identical to single stream ✓");
    }
    let threaded = BroadcastOpts::with_policy(ExecPolicy::threaded());
    let spawn_ns = run_spawn_per_pass(&batches, &feed2, samples, threaded);
    let persistent_ns = run_persistent(&batches, &feed2, samples, threaded);
    let wall_auto_ns = run_spawn_per_pass(
        &batches,
        &feed2,
        samples,
        BroadcastOpts::with_policy(ExecPolicy::auto()),
    );
    println!(
        "workers /{shards}: spawn-per-pass {:>10}  persistent {:>10}  ({:.2}x)  wall/auto {:>10}",
        human(spawn_ns),
        human(persistent_ns),
        spawn_ns as f64 / persistent_ns as f64,
        human(wall_auto_ns),
    );

    // ── placement: uniform hash vs greedy hot-vertex rebalance ───────
    let hub = gen::zipf_hub(zipf_nv, zipf_m, 1.1, 31);
    let hub_stream = InsertionStream::from_graph(&hub, 32);
    let uniform = ShardedFeed::partition(&hub_stream, shards);
    let balanced = ShardedFeed::partition_with_map(
        &hub_stream,
        ShardMap::balanced(shards, &uniform.vertex_delivery_counts(), 16),
    );
    let hottest = |f: &ShardedFeed| (0..shards).map(|i| f.shard(i).len()).max().unwrap();
    let hub_batches = capture_batches(trials.min(3_000), &hub_stream, 17, 15);
    {
        let mut ua = RouterArena::new();
        let mut ba = RouterArena::new();
        for (batch, seed) in &hub_batches {
            let (a, _) = answer_batch_sharded(
                Model::Insertion,
                batch.to_vec(),
                &uniform,
                *seed,
                &mut ua,
                PassOpts::default(),
                ExecPolicy::serial(),
            );
            let (b, _) = answer_batch_sharded(
                Model::Insertion,
                batch.to_vec(),
                &balanced,
                *seed,
                &mut ba,
                PassOpts::default(),
                ExecPolicy::serial(),
            );
            assert_eq!(a, b, "placement changed an answer");
        }
        println!("equivalence check: balanced placement identical to uniform ✓");
    }
    let (uni_wall, uni_crit) = run_serial_critical(&hub_batches, &uniform, samples);
    let (bal_wall, bal_crit) = run_serial_critical(&hub_batches, &balanced, samples);
    println!(
        "placement/{shards}: uniform critical {:>10} (hottest {} upd)  balanced critical {:>10} (hottest {} upd)  ({:.2}x)",
        human(uni_crit),
        hottest(&uniform),
        human(bal_crit),
        hottest(&balanced),
        uni_crit as f64 / bal_crit as f64,
    );

    if let Ok(path) = std::env::var("SGS_BENCH_JSON") {
        let mut ring_body = String::new();
        for (n, mutex_ns, lockfree_ns) in &ring_rows {
            ring_body.push_str(&format!(
                "    {{\"consumers\": {n}, \"mutex_ring_ns\": {mutex_ns}, \"lockfree_ring_ns\": {lockfree_ns}, \"speedup_lockfree_vs_mutex\": {:.2}}},\n",
                *mutex_ns as f64 / *lockfree_ns as f64,
            ));
        }
        ring_body.pop();
        ring_body.pop();
        let json = format!(
            "{{\n  \"description\": \"PR-7 parallel runtime: (ring) ingest-bound counter fan-out through the lock-free seqlock Broadcast ring vs the retired MutexBroadcast reference ring, cooperative schedule; (workers) captured multi-round relaxed-f3 estimator batches through per-pass scoped threads vs one persistent ShardRuntime pool, ExecPolicy::threaded, plus wall_auto = the default policy on this host (the pre-PR acceptance guard); (placement) the same workload on a zipf hub stream, serial schedule, uniform hash vs ShardMap::balanced — critical_path_ns = sum over passes of the slowest shard's isolated feed time, hottest_shard_updates = delivered updates on the most loaded shard. All three groups assert byte-identical answers in-bench. Regenerate: SGS_BENCH_JSON=<path> cargo bench -p sgs-bench --bench parallel\",\n  \"workload\": \"ring gnm({ring_nv}, {ring_m}) x {updates} updates, ring capacity {capacity} block {ring_block}; workers triangle Relaxed-f3 {trials} trials gnm(800, 12000) {shards} shards; placement zipf_hub({zipf_nv}, {zipf_m}, 1.1) {shards} shards\",\n  \"host_cores\": {cores},\n  \"samples\": {samples}, \"statistic\": \"min over samples (additive scheduler noise)\",\n  \"ring_fanout\": [\n{ring_body}\n  ],\n  \"workers\": {{\"shards\": {shards}, \"spawn_per_pass_ns\": {spawn_ns}, \"persistent_ns\": {persistent_ns}, \"speedup_persistent_vs_spawn\": {spawn_speedup:.2}, \"wall_auto_ns\": {wall_auto_ns}}},\n  \"placement\": {{\"shards\": {shards}, \"uniform_wall_ns\": {uni_wall}, \"uniform_critical_ns\": {uni_crit}, \"uniform_hottest_shard_updates\": {uni_hot}, \"balanced_wall_ns\": {bal_wall}, \"balanced_critical_ns\": {bal_crit}, \"balanced_hottest_shard_updates\": {bal_hot}, \"speedup_critical_balanced_vs_uniform\": {crit_speedup:.2}}}\n}}\n",
            ring_nv = ring_nv,
            ring_m = ring_m,
            updates = ring_feed.stream_len(),
            capacity = capacity,
            ring_block = ring_block,
            trials = trials,
            shards = shards,
            zipf_nv = zipf_nv,
            zipf_m = zipf_m,
            cores = cores,
            samples = samples,
            spawn_ns = spawn_ns,
            persistent_ns = persistent_ns,
            spawn_speedup = spawn_ns as f64 / persistent_ns as f64,
            wall_auto_ns = wall_auto_ns,
            uni_wall = uni_wall,
            uni_crit = uni_crit,
            uni_hot = hottest(&uniform),
            bal_wall = bal_wall,
            bal_crit = bal_crit,
            bal_hot = hottest(&balanced),
            crit_speedup = uni_crit as f64 / bal_crit as f64,
        );
        std::fs::write(&path, json).expect("write bench json");
        println!("wrote {path}");
    }
}
