//! Traced in-process runs: the public calls `sgs count` / `sgs serve`
//! make, with the CLI's parameters and one span around each call, so
//! every answer must come out bit-identical to the child process's.
//!
//! The estimators' round loops live inside the query drivers, so the
//! sampler bank is wrapped in [`Timed`], which times each `next_round`
//! and `output` call the driver makes. A pass is the gap between two
//! consecutive rounds: the driver answering one round's batch.

use crate::tracer::Tracer;
use crate::workloads::{self, Sizes, Workload};
use sgs_core::fgp::practical_trials;
use sgs_core::fgp::SamplerOutcome;
use sgs_core::{SamplerMode, SamplerPlan, SubgraphSampler};
use sgs_graph::{AdjListGraph, Pattern, Rho, StaticGraph};
use sgs_query::broadcast::run_insertion_broadcast_on_runtime;
use sgs_query::exec::{insertion_pass_reservoir_draws, DEFAULT_BLOCK};
use sgs_query::sharded::{run_insertion_sharded_with_exec, run_turnstile_sharded_with_exec};
use sgs_query::{
    Answer as QueryAnswer, BroadcastOpts, ExecPolicy, L0Mode, Parallel, PassOpts, Query, QuerySet,
    ReservoirMode, RoundAdaptive, RouterArena, ServeConfig, ServerNode,
};
use sgs_stream::hash::split_seed;
use sgs_stream::{InsertionStream, ShardedFeed, TurnstileStream};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

type Res<T> = Result<T, String>;
type Metrics = BTreeMap<&'static str, f64>;

/// One answer the traced run produced, to compare with the child's.
pub struct Answer {
    pub name: String,
    pub hits: u64,
    pub trials: usize,
    pub bits: u64,
    /// Stream prefix the answer covers (`serve-mixed` COUNTs only).
    pub prefix: Option<u64>,
}

/// What a traced run reports: its answers, its wall time, and the
/// per-layer metrics its spans and the program's own reports give.
pub struct Report {
    pub answers: Vec<Answer>,
    pub wall_ns: u64,
    pub covered_ns: u64,
    pub metrics: Metrics,
}

impl Report {
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"answers\": [");
        for (i, a) in self.answers.iter().enumerate() {
            let prefix = a.prefix.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"hits\": {}, \"trials\": {}, \"bits\": \"{:016x}\", \
                 \"prefix\": {prefix}}}",
                if i == 0 { "" } else { ", " },
                a.name,
                a.hits,
                a.trials,
                a.bits,
            );
        }
        let _ = write!(
            out,
            "], \"wall_ns\": {}, \"covered_ns\": {}, \"metrics\": {{",
            self.wall_ns, self.covered_ns
        );
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\": {v}", if i == 0 { "" } else { ", " });
        }
        out.push_str("}}");
        out
    }
}

/// What [`Timed`] saw of one estimate's rounds.
#[derive(Default)]
struct RoundLog {
    /// Start, end and emitted batch length of every `next_round` call;
    /// the last call emits nothing.
    rounds: Vec<(Instant, Instant, usize)>,
    output: Option<(Instant, Instant)>,
    /// Batches that ask `RandomNeighbor` (the reservoir passes), by
    /// 1-based pass number, for counting reservoir draws afterwards.
    neighbor_batches: Vec<(u64, Vec<Query>)>,
}

/// A sampler bank whose `next_round` and `output` calls are timed.
struct Timed<A> {
    inner: A,
    log: RoundLog,
}

impl<A> Timed<A> {
    fn new(inner: A) -> Self {
        Timed {
            inner,
            log: RoundLog::default(),
        }
    }
}

impl<A: RoundAdaptive> RoundAdaptive for Timed<A> {
    type Output = (A::Output, RoundLog);

    fn next_round(&mut self, answers: &[QueryAnswer]) -> Vec<Query> {
        let start = Instant::now();
        let batch = self.inner.next_round(answers);
        self.log.rounds.push((start, Instant::now(), batch.len()));
        if batch.iter().any(|q| matches!(q, Query::RandomNeighbor(_))) {
            let pass = self.log.rounds.len() as u64;
            self.log.neighbor_batches.push((pass, batch.clone()));
        }
        batch
    }

    fn output(&mut self) -> Self::Output {
        let start = Instant::now();
        let out = self.inner.output();
        self.log.output = Some((start, Instant::now()));
        (out, std::mem::take(&mut self.log))
    }
}

impl RoundLog {
    /// Record the rounds, the passes between them, and `output` as spans
    /// under the innermost open span.
    fn record(&self, t: &mut Tracer) {
        for (i, &(start, end, _)) in self.rounds.iter().enumerate() {
            t.record("core.round", start, end);
            if let Some(&(next, _, _)) = self.rounds.get(i + 1) {
                t.record("query.pass", end, next);
            }
        }
        if let Some((start, end)) = self.output {
            t.record("core.output", start, end);
        }
    }

    /// Add this estimate's round, pass and output times (ms) and pass
    /// query counts into `sums`, keyed by metric name.
    fn add_to(&self, sums: &mut Metrics) {
        const ROUNDS: [&str; 3] = ["core.round1_ms", "core.round2_ms", "core.round3_ms"];
        const PASSES: [&str; 3] = ["query.pass1_ms", "query.pass2_ms", "query.pass3_ms"];
        const QUERIES: [&str; 3] = [
            "query.pass1_queries",
            "query.pass2_queries",
            "query.pass3_queries",
        ];
        let last = self.rounds.len().saturating_sub(1);
        for (i, &(start, end, len)) in self.rounds.iter().enumerate() {
            let round = if i == last {
                "core.finish_ms"
            } else {
                ROUNDS[i.min(2)]
            };
            *sums.entry(round).or_default() += ms(end - start);
            if let Some(&(next, _, _)) = self.rounds.get(i + 1) {
                *sums.entry(PASSES[i.min(2)]).or_default() += ms(next - end);
                *sums.entry(QUERIES[i.min(2)]).or_default() += len as f64;
            }
        }
        if let Some((start, end)) = self.output {
            *sums.entry("core.output_ms").or_default() += ms(end - start);
        }
    }

    /// Reservoir draws of this estimate's `RandomNeighbor` passes,
    /// counted on a replay of each.
    fn reservoir_draws(&self, feed: &ShardedFeed, seed: u64, opts: PassOpts) -> u64 {
        let pass_seed = split_seed(seed, u64::MAX);
        self.neighbor_batches
            .iter()
            .map(|(pass, batch)| {
                insertion_pass_reservoir_draws(batch, feed, split_seed(pass_seed, *pass), opts)
            })
            .sum()
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The sampler bank `sgs count` builds: `trials` samplers seeded
/// `split_seed(seed, i)`.
fn bank(
    plan: &std::sync::Arc<SamplerPlan>,
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

/// `CountEstimate::from_outcomes`, term for term: `(hits, estimate)`.
fn estimate(outcomes: &[SamplerOutcome], rho: Rho) -> (u64, f64) {
    let hits = outcomes.iter().filter(|o| o.copy.is_some()).count() as u64;
    let m = outcomes.iter().map(|o| o.m).max().unwrap_or(0);
    let est = if outcomes.is_empty() {
        0.0
    } else {
        rho.pow(2.0 * m as f64) * hits as f64 / outcomes.len() as f64
    };
    (hits, est)
}

fn read_graph(t: &mut Tracer, dir: &Path) -> Res<AdjListGraph> {
    let path = dir.join("edges.txt");
    let file = std::fs::File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    t.span("graph.parse", || {
        sgs_graph::io::read_edge_list(BufReader::new(file))
    })
}

/// Metrics every batch run has: input stages, feed shape, core/query
/// spans.
fn batch_metrics(t: &Tracer, feed: &ShardedFeed, metrics: &mut Metrics) {
    for (metric, span) in [
        ("graph.parse_ms", "graph.parse"),
        ("stream.build_ms", "stream.build"),
        ("stream.partition_ms", "stream.partition"),
        ("core.bank_ms", "core.bank"),
        ("core.teardown_ms", "core.teardown"),
    ] {
        metrics.insert(metric, ns_ms(t.total_ns(span)));
    }
    let sizes: Vec<usize> = (0..feed.num_shards())
        .map(|i| feed.shard(i).len())
        .collect();
    let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
    let max = sizes.iter().copied().max().unwrap_or(0) as f64;
    metrics.insert("stream.updates", feed.stream_len() as f64);
    metrics.insert(
        "stream.shard_skew",
        if mean > 0.0 { max / mean } else { 1.0 },
    );
}

fn dump_spans(t: &Tracer, dir: &Path) -> Res<()> {
    let path = dir.join("spans.json");
    t.write_json(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `sgs count --pattern triangle` (insertion, or `--turnstile`), as
/// `estimate_*_threaded_with_exec` runs it: stream build, partition, the
/// sampler bank, `run_*_sharded_with_exec` over the timed bank, then
/// freeing it all (which the CLI does before it prints).
pub fn batch_single(w: Workload, seed: u64, z: &Sizes, dir: &Path) -> Res<Report> {
    let turnstile = w == Workload::BatchTurnstile;
    let policy = ExecPolicy::from_env();
    let opts = PassOpts::with_block(DEFAULT_BLOCK)
        .reservoir(ReservoirMode::Skip)
        .l0(L0Mode::Dispatch);
    let mut t = Tracer::new();
    let g = read_graph(&mut t, dir)?;
    let pattern = Pattern::triangle();
    let plan = SamplerPlan::new(&pattern).expect("triangle has an edge cover");
    let (shards, trials, mode) = if turnstile {
        (z.turnstile_shards, z.turnstile_trials, SamplerMode::Relaxed)
    } else {
        // The CLI's default trial count when none is given.
        let trials = z.insertion_trials.unwrap_or_else(|| {
            practical_trials(g.num_edges(), plan.rho(), 0.2, 1.0).min(2_000_000)
        });
        (1, trials, SamplerMode::Indexed)
    };
    let order_seed = seed ^ 0x77;
    let feed = if turnstile {
        let s = t.span("stream.build", || {
            TurnstileStream::from_graph_with_churn(&g, 1.0, order_seed)
        });
        t.span("stream.partition", || ShardedFeed::partition(&s, shards))
    } else {
        let s = t.span("stream.build", || {
            InsertionStream::from_graph(&g, order_seed)
        });
        t.span("stream.partition", || ShardedFeed::partition(&s, shards))
    };
    let par = t.span("core.bank", || Timed::new(bank(&plan, mode, trials, seed)));
    let mut arena = RouterArena::new();
    let run = t.begin("query.run");
    let ((outcomes, log), report) = if turnstile {
        run_turnstile_sharded_with_exec(
            par,
            &feed,
            split_seed(seed, u64::MAX),
            &mut arena,
            opts,
            policy,
        )
    } else {
        run_insertion_sharded_with_exec(
            par,
            &feed,
            split_seed(seed, u64::MAX),
            &mut arena,
            opts,
            policy,
        )
    };
    log.record(&mut t);
    t.end(run);
    let (hits, est) = estimate(&outcomes, plan.rho());
    t.span("core.teardown", || drop((outcomes, arena)));
    let wall_ns = t.elapsed_ns();

    let mut metrics = Metrics::new();
    batch_metrics(&t, &feed, &mut metrics);
    log.add_to(&mut metrics);
    metrics.insert("core.hits", hits as f64);
    metrics.insert("query.pass_space_bytes", report.max_pass_space_bytes as f64);
    // Turnstile f3 runs on ℓ₀-samplers: no reservoirs to draw from.
    let draws = if turnstile {
        0
    } else {
        log.reservoir_draws(&feed, seed, opts)
    };
    metrics.insert("stream.reservoir_draws", draws as f64);
    dump_spans(&t, dir)?;
    Ok(Report {
        answers: vec![Answer {
            name: pattern.name().to_string(),
            hits,
            trials,
            bits: est.to_bits(),
            prefix: None,
        }],
        wall_ns,
        covered_ns: t.covered_ns(),
        metrics,
    })
}

/// `sgs count --queries`, as `estimate_multi_insertion` runs it: one
/// timed bank per query line admitted to a `QuerySet`, then one shared
/// pass per round. The admission report gives the shared passes.
pub fn batch_multi(seed: u64, z: &Sizes, dir: &Path) -> Res<Report> {
    let policy = ExecPolicy::from_env();
    let opts = PassOpts::with_block(DEFAULT_BLOCK).l0(L0Mode::Dispatch);
    let mut t = Tracer::new();
    let g = read_graph(&mut t, dir)?;
    let s = t.span("stream.build", || {
        InsertionStream::from_graph(&g, seed ^ 0x77)
    });
    let feed = t.span("stream.partition", || ShardedFeed::partition(&s, 1));
    let lines = workloads::multi_lines(z);
    let mut set = QuerySet::new();
    let mut jobs = Vec::new();
    let admit = t.begin("core.bank");
    for (i, q) in lines.iter().enumerate() {
        let plan = SamplerPlan::new(&q.pattern).ok_or("a benchmark query has no edge cover")?;
        // The CLI's defaults: base seed plus the 1-based line number.
        let job_seed = seed.wrapping_add(i as u64 + 1);
        let mode = if q.relaxed {
            SamplerMode::Relaxed
        } else {
            SamplerMode::Indexed
        };
        let reservoir = if q.offer {
            ReservoirMode::Offer
        } else {
            ReservoirMode::Skip
        };
        let par = Timed::new(bank(&plan, mode, q.trials, job_seed));
        set.admit(par, split_seed(job_seed, u64::MAX), reservoir);
        jobs.push((
            q.pattern.name().to_string(),
            plan.rho(),
            job_seed,
            reservoir,
        ));
    }
    t.end(admit);
    let mut arena = RouterArena::new();
    let mux = t.begin("query.mux");
    let out = set.run_insertion(&feed, &mut arena, opts, policy);
    for (_, log) in &out.outputs {
        log.record(&mut t);
    }
    t.end(mux);
    let answers: Vec<Answer> = out
        .outputs
        .iter()
        .zip(&jobs)
        .map(|((outcomes, _), (name, rho, _, _))| {
            let (hits, est) = estimate(outcomes, *rho);
            Answer {
                name: name.clone(),
                hits,
                trials: outcomes.len(),
                bits: est.to_bits(),
                prefix: None,
            }
        })
        .collect();
    let logs: Vec<RoundLog> = out.outputs.into_iter().map(|(_, log)| log).collect();
    let admission = out.admission;
    t.span("core.teardown", || drop(arena));
    let wall_ns = t.elapsed_ns();

    let mut metrics = Metrics::new();
    batch_metrics(&t, &feed, &mut metrics);
    for log in &logs {
        log.add_to(&mut metrics);
    }
    // Jobs share each pass, so a pass is the admission report's
    // critical path, not the gap between one job's rounds.
    let pass_ns: Vec<u64> = admission.rounds.iter().map(|r| r.pass_nanos).collect();
    for (i, name) in ["query.pass1_ms", "query.pass2_ms", "query.pass3_ms"]
        .iter()
        .enumerate()
    {
        metrics.insert(name, ns_ms(pass_ns.get(i).copied().unwrap_or(0)));
    }
    let critical: u64 = pass_ns.iter().sum();
    metrics.insert("query.mux_ms", ns_ms(t.total_ns("query.mux")));
    metrics.insert("query.mux_rounds", admission.rounds.len() as f64);
    metrics.insert("query.mux_critical_ms", ns_ms(critical));
    metrics.insert(
        "query.mux_round_ms",
        ns_ms(critical) / admission.rounds.len().max(1) as f64,
    );
    let space = out.reports.iter().map(|r| r.max_pass_space_bytes).max();
    metrics.insert("query.pass_space_bytes", space.unwrap_or(0) as f64);
    metrics.insert("core.hits", answers.iter().map(|a| a.hits as f64).sum());
    let draws: u64 = logs
        .iter()
        .zip(&jobs)
        .map(|(log, (_, _, job_seed, reservoir))| {
            log.reservoir_draws(&feed, *job_seed, opts.reservoir(*reservoir))
        })
        .sum();
    metrics.insert("stream.reservoir_draws", draws as f64);
    dump_spans(&t, dir)?;
    Ok(Report {
        answers,
        wall_ns,
        covered_ns: t.covered_ns(),
        metrics,
    })
}

/// What the load generator sent to `sgs serve`: how many updates in all,
/// where the open-loop phase began and ended, and the prefix each COUNT
/// was answered at.
struct ServeLog {
    updates: usize,
    mixed: (u64, u64),
    counts: Vec<u64>,
}

fn read_serve_log(dir: &Path) -> Res<ServeLog> {
    let path = dir.join("serve_log.txt");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = || format!("{}: malformed", path.display());
    let mut lines = text.lines();
    let head: Vec<u64> = lines
        .next()
        .ok_or_else(bad)?
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| bad()))
        .collect::<Res<_>>()?;
    let [updates, start, end] = head[..] else {
        return Err(bad());
    };
    let counts = lines
        .map(|l| l.trim().parse().map_err(|_| bad()))
        .collect::<Res<_>>()?;
    Ok(ServeLog {
        updates: updates as usize,
        mixed: (start, end),
        counts,
    })
}

/// `sgs serve` replayed in process: a [`ServerNode`] with the CLI's
/// default config ingests the update sequence the load generator sent,
/// and at each COUNT's prefix answers it as the node loop does: `cut`,
/// then `estimate_insertion_on_runtime` (the bank, then
/// `run_insertion_broadcast_on_runtime` over the timed bank). One span
/// per ingest (relabelled `serve.snapshot` when it wrote one), and a
/// trace id per COUNT. The replay runs twice, untraced then traced, for
/// the tracing overhead; both must give the same answers.
pub fn serve(seed: u64, z: &Sizes, dir: &Path) -> Res<Report> {
    let log = read_serve_log(dir)?;
    let updates = workloads::serve_updates(seed, z);
    if log.updates > updates.len() {
        return Err(format!(
            "log names {} updates, pool has {}",
            log.updates,
            updates.len()
        ));
    }
    let mut plain = Tracer::disabled();
    let (untraced, _) = serve_replay(seed, z, dir, &log, &updates, &mut plain)?;
    let untraced_ns = plain.elapsed_ns();
    let mut t = Tracer::new();
    let (answers, rounds) = serve_replay(seed, z, dir, &log, &updates, &mut t)?;
    let wall_ns = t.elapsed_ns();
    if answers
        .iter()
        .map(|a| a.bits)
        .ne(untraced.iter().map(|a| a.bits))
    {
        return Err("traced and untraced replays disagree".into());
    }

    // The k-th ingest span is update k; the j-th COUNT is log.counts[j].
    let in_mixed = |p: u64| p >= log.mixed.0 && p < log.mixed.1;
    let (mut mixed_ns, mut ingested, mut counted) = (0u64, 0u64, 0usize);
    for s in t.spans() {
        let p = match s.name.as_str() {
            "serve.ingest" | "serve.snapshot" => {
                ingested += 1;
                ingested - 1
            }
            "serve.cut" => log.counts[counted],
            "serve.count" => {
                counted += 1;
                log.counts[counted - 1]
            }
            _ => continue,
        };
        if in_mixed(p) {
            mixed_ns += s.ns();
        }
    }
    let durations = |name: &str| -> Vec<u64> {
        let mut v: Vec<u64> = t
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns())
            .collect();
        v.sort_unstable();
        v
    };
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    let median = |v: &[u64]| v.get(v.len() / 2).copied().unwrap_or(0);
    let mut metrics = Metrics::new();
    // Ingest and snapshot cost per call on average: block flushes and
    // snapshots are part of what ingest costs. COUNT steps by median,
    // to compare with the live COUNT latency's median.
    metrics.insert(
        "serve.node_ingest_us",
        mean(&durations("serve.ingest")) / 1e3,
    );
    metrics.insert(
        "serve.snapshot_ms",
        mean(&durations("serve.snapshot")) / 1e6,
    );
    metrics.insert("serve.cut_ms", ns_ms(median(&durations("serve.cut"))));
    metrics.insert("serve.count_ms", ns_ms(median(&durations("serve.count"))));
    metrics.insert("serve.node_mixed_ms", ns_ms(mixed_ns));
    // One COUNT's sampler rounds and passes, averaged over the COUNTs.
    let mut sums = Metrics::new();
    for r in &rounds {
        r.add_to(&mut sums);
    }
    for (k, v) in sums {
        metrics.insert(k, v / rounds.len().max(1) as f64);
    }
    metrics.insert(
        "core.bank_ms",
        ns_ms(t.total_ns("core.bank")) / rounds.len().max(1) as f64,
    );
    metrics.insert("stream.updates", log.updates as f64);
    metrics.insert("core.hits", answers.iter().map(|a| a.hits as f64).sum());
    metrics.insert("trace.overhead", wall_ns as f64 / untraced_ns as f64);
    dump_spans(&t, dir)?;
    Ok(Report {
        answers,
        wall_ns,
        covered_ns: t.covered_ns(),
        metrics,
    })
}

fn serve_replay(
    seed: u64,
    z: &Sizes,
    dir: &Path,
    log: &ServeLog,
    updates: &[sgs_graph::Edge],
    t: &mut Tracer,
) -> Res<(Vec<Answer>, Vec<RoundLog>)> {
    let policy = ExecPolicy::from_env();
    let pass = PassOpts::with_block(DEFAULT_BLOCK)
        .l0(L0Mode::Dispatch)
        .reservoir(ReservoirMode::Skip);
    let plan = SamplerPlan::new(&Pattern::triangle()).expect("triangle has an edge cover");
    let node_dir = dir.join("trace_node");
    let _ = std::fs::remove_dir_all(&node_dir);
    let mut node = t
        .span("serve.open", || {
            ServerNode::create(&node_dir, ServeConfig::default(), policy)
        })
        .map_err(|e| e.to_string())?;
    let mut arena = RouterArena::new();
    let mut answers = Vec::new();
    let mut rounds = Vec::new();
    let mut counts = log.counts.iter().copied().peekable();
    for p in 0..=log.updates as u64 {
        while counts.next_if_eq(&p).is_some() {
            t.next_trace();
            let feed = t
                .span("serve.cut", || node.cut())
                .map_err(|e| e.to_string())?;
            let count = t.begin("serve.count");
            let par = t.span("core.bank", || {
                Timed::new(bank(
                    &plan,
                    SamplerMode::Indexed,
                    z.serve_count_trials,
                    seed,
                ))
            });
            let run = t.begin("query.run");
            let ((outcomes, round_log), _) = run_insertion_broadcast_on_runtime(
                par,
                &feed,
                split_seed(seed, u64::MAX),
                &mut arena,
                pass,
                BroadcastOpts::with_policy(policy),
                &mut [],
                node.runtime_mut(),
            );
            round_log.record(t);
            t.end(run);
            t.end(count);
            node.note_served();
            let (hits, est) = estimate(&outcomes, plan.rho());
            answers.push(Answer {
                name: "triangle".to_string(),
                hits,
                trials: outcomes.len(),
                bits: est.to_bits(),
                prefix: Some(p),
            });
            rounds.push(round_log);
        }
        if p == log.updates as u64 {
            break;
        }
        let e = updates[p as usize];
        let snapshots = node.stats().snapshots;
        let id = t.begin("serve.ingest");
        let pos = node.ingest(e.u().0, e.v().0, 1);
        t.end(id);
        match pos {
            Ok(pos) if pos == p => {}
            other => return Err(format!("ingest {p}: {other:?}")),
        }
        if node.stats().snapshots != snapshots {
            t.relabel(id, "serve.snapshot");
        }
    }
    if counts.next().is_some() {
        return Err("a COUNT prefix lies beyond the logged updates".into());
    }
    t.span("serve.shutdown", || node.shutdown())
        .map_err(|e| e.to_string())?;
    Ok((answers, rounds))
}
