//! The `sgs serve` line protocol: a long-lived node behind a socket.
//!
//! One [`ServerNode`] (WAL-backed ingest, open broadcast ring, persistent
//! shard worker pool) serves many concurrent client sessions over TCP
//! and/or a Unix socket. Each connection speaks a line protocol:
//!
//! ```text
//! INGEST u v delta          -> OK <position> | ERR <reason>
//! COUNT <pattern> [trials=N] [seed=S] [reservoir=offer|skip]
//!       [relaxed] [turnstile]
//!                           -> OK #<name> ≈ <est> (hits H/T, seed S)
//!                                prefix=<updates> bits=<hex f64>
//! SNAPSHOT                  -> OK snapshot seq=<blocks>
//! STAT                      -> OK updates=... blocks=... ...
//! QUIT                      -> BYE  (graceful node shutdown)
//! ```
//!
//! Client threads parse lines into requests and forward them with a
//! private reply channel to the single node loop, which drains the queue
//! in arrival order. Consecutive COUNTs in one drained batch share one
//! feed cut: a lone query runs on the node's persistent runtime
//! ([`crate::fgp::estimate_on_runtime`]), a batch is
//! admission-multiplexed through one shared pass per round
//! ([`crate::fgp::estimate_multi`]). Both paths are
//! byte-identical to the equivalent solo batch `sgs count` over the same
//! ingested prefix — the reply's `bits=` field is the exact `f64` so
//! clients can check.
//!
//! `QUIT` shuts the node down gracefully: remaining queued requests are
//! refused, the ring drains, the WAL seals, and a final snapshot lands,
//! so a later `sgs serve` (or `sgs recover`) resumes from the directory.

use crate::fgp::{
    estimate_multi, estimate_on_runtime, practical_trials, CountEstimate, QuerySpec, SamplerPlan,
    MAX_TRIALS,
};
use crate::SamplerMode;
use sgs_graph::zoo::parse_pattern;
use sgs_graph::Pattern;
use sgs_query::{
    BroadcastOpts, ExecPolicy, Model, PassOpts, ReservoirMode, RouterArena, ServeError,
    ServeSnapshot, ServerNode,
};
use sgs_stream::persist::PersistResult;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::thread;

/// Execution knobs shared by every query the node answers.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Worker policy for the persistent pool and multiplexed passes.
    pub policy: ExecPolicy,
    /// Pass feeding options (block size, ℓ₀ path); the per-query
    /// reservoir choice overrides the reservoir field per COUNT.
    pub pass: PassOpts,
    /// Accuracy target for defaulted trial counts
    /// (`practical_trials(live_edges, rho, eps, 1.0)`).
    pub eps: f64,
}

impl ServeOptions {
    /// Defaults: the given policy, the executor's default block size,
    /// `eps = 0.2` (the CLI's count default).
    pub fn new(policy: ExecPolicy) -> Self {
        ServeOptions {
            policy,
            pass: PassOpts::with_block(sgs_query::exec::DEFAULT_BLOCK),
            eps: 0.2,
        }
    }
}

/// The sockets a node accepts sessions on. Either may be absent; a node
/// with neither exits immediately (nothing can ever reach it).
#[derive(Default)]
pub struct Listeners {
    pub tcp: Option<TcpListener>,
    #[cfg(unix)]
    pub unix: Option<UnixListener>,
}

/// One COUNT request, parsed but not yet resolved against node state
/// (default trials and seed depend on the live edge count and config).
#[derive(Clone, Debug)]
struct CountSpec {
    pattern: Pattern,
    /// 0 = derive from `practical_trials` at answer time.
    trials: usize,
    /// `None` = the node config's seed.
    seed: Option<u64>,
    reservoir: ReservoirMode,
    /// True when `reservoir=` was given explicitly (rejected with
    /// `turnstile`, where reservoirs don't exist).
    reservoir_set: bool,
    relaxed: bool,
    model: Model,
}

/// A parsed protocol line.
#[derive(Clone, Debug)]
enum Request {
    Ingest { u: u32, v: u32, delta: i8 },
    Count(Box<CountSpec>),
    Snapshot,
    Stat,
    Quit,
}

type Job = (Request, Sender<String>);

fn parse_count(mut toks: std::str::SplitWhitespace<'_>) -> Result<Request, String> {
    let pat_tok = toks.next().ok_or("COUNT needs a pattern name")?;
    let pattern = parse_pattern(pat_tok).ok_or_else(|| format!("unknown pattern '{pat_tok}'"))?;
    let mut spec = CountSpec {
        pattern,
        trials: 0,
        seed: None,
        reservoir: ReservoirMode::Skip,
        reservoir_set: false,
        relaxed: false,
        model: Model::Insertion,
    };
    for tok in toks {
        if tok == "relaxed" {
            spec.relaxed = true;
        } else if tok == "turnstile" {
            spec.model = Model::Turnstile;
        } else if let Some(v) = tok.strip_prefix("trials=") {
            spec.trials = v.parse().map_err(|_| format!("bad trials '{v}'"))?;
            if spec.trials > MAX_TRIALS {
                return Err(format!("trials={v} exceeds the limit of {MAX_TRIALS}"));
            }
        } else if let Some(v) = tok.strip_prefix("seed=") {
            spec.seed = Some(v.parse().map_err(|_| format!("bad seed '{v}'"))?);
        } else if let Some(v) = tok.strip_prefix("reservoir=") {
            spec.reservoir = match v {
                "offer" => ReservoirMode::Offer,
                "skip" => ReservoirMode::Skip,
                other => return Err(format!("reservoir must be offer|skip, got '{other}'")),
            };
            spec.reservoir_set = true;
        } else {
            return Err(format!("unknown COUNT token '{tok}'"));
        }
    }
    if spec.model == Model::Turnstile && (spec.relaxed || spec.reservoir_set) {
        return Err(
            "relaxed/reservoir only apply to insertion COUNTs (turnstile trials are always \
             relaxed, on ℓ₀-samplers)"
                .to_string(),
        );
    }
    Ok(Request::Count(Box::new(spec)))
}

/// Parse one protocol line (already known non-blank). `Err` is the text
/// after `ERR ` in the refusal; the connection continues either way.
fn parse_request(line: &str) -> Result<Request, String> {
    let mut toks = line.split_whitespace();
    let verb = toks.next().expect("caller skips blank lines");
    match verb.to_ascii_uppercase().as_str() {
        "INGEST" => {
            let mut field = |name: &str| {
                toks.next()
                    .ok_or_else(|| format!("INGEST needs u v delta (missing {name})"))
            };
            let u: u32 = field("u")?
                .parse()
                .map_err(|_| "bad vertex id for u".to_string())?;
            let v: u32 = field("v")?
                .parse()
                .map_err(|_| "bad vertex id for v".to_string())?;
            let delta: i8 = field("delta")?
                .parse()
                .map_err(|_| "delta must be +1 or -1".to_string())?;
            if toks.next().is_some() {
                return Err("INGEST takes exactly u v delta".to_string());
            }
            Ok(Request::Ingest { u, v, delta })
        }
        "COUNT" => parse_count(toks),
        "SNAPSHOT" => Ok(Request::Snapshot),
        "STAT" => Ok(Request::Stat),
        "QUIT" => Ok(Request::Quit),
        other => Err(format!(
            "unknown command '{other}' (INGEST|COUNT|SNAPSHOT|STAT|QUIT)"
        )),
    }
}

/// One client session: read lines, forward parsed requests to the node
/// loop, relay replies. Returns on EOF, after QUIT, or when the node is
/// gone.
fn session<R: BufRead, W: Write>(mut lines: R, mut out: W, jobs: Sender<Job>) {
    let (reply_tx, reply_rx) = mpsc::channel::<String>();
    let mut line = String::new();
    loop {
        line.clear();
        match lines.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let req = match parse_request(trimmed) {
            Ok(r) => r,
            Err(msg) => {
                if writeln!(out, "ERR {msg}").is_err() || out.flush().is_err() {
                    return;
                }
                continue;
            }
        };
        let quitting = matches!(req, Request::Quit);
        if jobs.send((req, reply_tx.clone())).is_err() {
            let _ = writeln!(out, "ERR node is shutting down");
            let _ = out.flush();
            return;
        }
        match reply_rx.recv() {
            Ok(reply) => {
                if writeln!(out, "{reply}").is_err() || out.flush().is_err() {
                    return;
                }
            }
            Err(_) => {
                // The node loop dropped this job (shutdown raced us).
                let _ = writeln!(out, "ERR node is shutting down");
                let _ = out.flush();
                return;
            }
        }
        if quitting {
            return;
        }
    }
}

fn count_reply(spec: &QuerySpec, est: &CountEstimate, prefix: u64) -> String {
    format!(
        "OK #{} ≈ {:.1} (hits {}/{}, seed {}) prefix={} bits={:016x}",
        spec.pattern.name(),
        est.estimate,
        est.hits,
        est.trials,
        spec.seed,
        prefix,
        est.estimate.to_bits(),
    )
}

/// Answer one model's share of a consecutive COUNT run over one cut.
#[allow(clippy::too_many_arguments)]
fn answer_group(
    node: &mut ServerNode,
    arena: &mut RouterArena,
    jobs: &[Job],
    group: &[usize],
    model: Model,
    feed: &sgs_stream::ShardedFeed,
    prefix: u64,
    opts: &ServeOptions,
) {
    if group.is_empty() {
        return;
    }
    if model == Model::Insertion && node.has_deletions() {
        for &k in group {
            let _ = jobs[k].1.send(
                "ERR stream has deletions; insertion-model COUNT is unavailable (add 'turnstile')"
                    .to_string(),
            );
        }
        return;
    }
    let m = node.live_edges();
    let base_seed = node.config().seed;
    // Resolve defaults; refuse uncoverable patterns without touching the
    // rest of the group.
    let mut resolved: Vec<(usize, QuerySpec)> = Vec::with_capacity(group.len());
    for &k in group {
        let Request::Count(spec) = &jobs[k].0 else {
            unreachable!("answer_group is only handed COUNT jobs");
        };
        let Some(plan) = SamplerPlan::new(&spec.pattern) else {
            let _ = jobs[k].1.send(format!(
                "ERR pattern '{}' has an isolated vertex (no edge cover)",
                spec.pattern.name()
            ));
            continue;
        };
        let trials = if spec.trials == 0 {
            practical_trials(m, plan.rho(), opts.eps, 1.0).clamp(1, MAX_TRIALS)
        } else {
            spec.trials
        };
        resolved.push((
            k,
            QuerySpec {
                pattern: spec.pattern.clone(),
                trials,
                seed: spec.seed.unwrap_or(base_seed),
                sampler: if spec.relaxed {
                    SamplerMode::Relaxed
                } else {
                    SamplerMode::Indexed
                },
                reservoir: spec.reservoir,
            },
        ));
    }
    if resolved.is_empty() {
        return;
    }
    if let [(k, spec)] = &resolved[..] {
        // A lone query runs on the node's persistent worker pool.
        let bcast = BroadcastOpts::with_policy(opts.policy);
        let est = estimate_on_runtime(
            spec,
            model,
            feed,
            arena,
            opts.pass,
            bcast,
            node.runtime_mut(),
        )
        .expect("plan validated above");
        let _ = jobs[*k].1.send(count_reply(spec, &est, prefix));
        node.note_served();
        return;
    }
    // A batch is admission-multiplexed: one shared pass per round serves
    // every query, each answer byte-identical to its solo run.
    let specs: Vec<QuerySpec> = resolved.iter().map(|(_, s)| s.clone()).collect();
    let (ests, _admission) = estimate_multi(&specs, model, feed, arena, opts.pass, opts.policy)
        .expect("plans validated above");
    for ((k, spec), est) in resolved.iter().zip(&ests) {
        let _ = jobs[*k].1.send(count_reply(spec, est, prefix));
        node.note_served();
    }
}

/// Answer a maximal run of consecutive COUNT jobs over ONE feed cut.
fn answer_counts(
    node: &mut ServerNode,
    arena: &mut RouterArena,
    jobs: &[Job],
    opts: &ServeOptions,
) -> PersistResult<()> {
    let feed = match node.cut() {
        Ok(f) => f,
        Err(e) => {
            for (_, reply) in jobs {
                let _ = reply.send(format!("ERR fatal: {e}"));
            }
            return Err(e);
        }
    };
    let prefix = node.ingested();
    for model in [Model::Insertion, Model::Turnstile] {
        let group: Vec<usize> = (0..jobs.len())
            .filter(|&k| matches!(&jobs[k].0, Request::Count(spec) if spec.model == model))
            .collect();
        answer_group(node, arena, jobs, &group, model, &feed, prefix, opts);
    }
    Ok(())
}

fn stat_reply(node: &ServerNode) -> String {
    let s = node.stats();
    format!(
        "OK updates={} blocks={} pending={} vertices={} edges={} deletions={} ring_produced={} \
         ring_consumed={} served={} snapshots={} shards={}",
        s.updates,
        s.blocks,
        s.pending,
        s.num_vertices,
        s.edges,
        s.deletions,
        s.ring_produced,
        s.ring_consumed,
        s.served,
        s.snapshots,
        s.shards,
    )
}

/// The single-threaded node loop: drain requests in arrival order,
/// batching consecutive COUNTs onto one cut. Returns after QUIT (graceful
/// shutdown: seal + final snapshot) or on a durability failure.
fn node_loop(
    mut node: ServerNode,
    rx: Receiver<Job>,
    opts: &ServeOptions,
) -> PersistResult<ServeSnapshot> {
    let mut arena = RouterArena::new();
    'serve: loop {
        let Ok(first) = rx.recv() else {
            // Every listener and client is gone; nothing can reach the
            // node any more, so shut down as if QUIT had arrived.
            break;
        };
        let mut batch = vec![first];
        while let Ok(job) = rx.try_recv() {
            batch.push(job);
        }
        let mut i = 0;
        while i < batch.len() {
            if matches!(batch[i].0, Request::Count(_)) {
                let mut j = i;
                while j < batch.len() && matches!(batch[j].0, Request::Count(_)) {
                    j += 1;
                }
                answer_counts(&mut node, &mut arena, &batch[i..j], opts)?;
                i = j;
                continue;
            }
            let (req, reply) = &batch[i];
            i += 1;
            match req {
                Request::Ingest { u, v, delta } => match node.ingest(*u, *v, *delta) {
                    Ok(pos) => {
                        let _ = reply.send(format!("OK {pos}"));
                    }
                    Err(ServeError::Reject(msg)) => {
                        let _ = reply.send(format!("ERR {msg}"));
                    }
                    Err(ServeError::Persist(e)) => {
                        let _ = reply.send(format!("ERR fatal: {e}"));
                        return Err(e);
                    }
                },
                Request::Stat => {
                    let _ = reply.send(stat_reply(&node));
                }
                Request::Snapshot => match node.snapshot() {
                    Ok(snap) => {
                        let _ = reply.send(format!("OK snapshot seq={}", snap.blocks));
                    }
                    Err(e) => {
                        let _ = reply.send(format!("ERR fatal: {e}"));
                        return Err(e);
                    }
                },
                Request::Quit => {
                    let _ = reply.send("BYE".to_string());
                    // Jobs still queued behind QUIT are dropped; their
                    // sessions observe the hung-up reply channel.
                    break 'serve;
                }
                Request::Count(_) => unreachable!("handled by the batch scan above"),
            }
        }
    }
    node.shutdown()
}

/// Run the node behind the given sockets until a client sends QUIT (or
/// every listener is gone). Consumes the node; on success the WAL is
/// sealed, a final snapshot is published, and the returned
/// [`ServeSnapshot`] describes the durable state a restart resumes from.
pub fn run_server(
    node: ServerNode,
    listeners: Listeners,
    opts: ServeOptions,
) -> PersistResult<ServeSnapshot> {
    let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
    let stop = Arc::new(AtomicBool::new(false));
    let mut acceptors = Vec::new();
    let tcp_wake = listeners.tcp.as_ref().and_then(|l| l.local_addr().ok());
    if let Some(listener) = listeners.tcp {
        let jobs = jobs_tx.clone();
        let stop = Arc::clone(&stop);
        acceptors.push(thread::spawn(move || {
            for conn in listener.incoming() {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let jobs = jobs.clone();
                thread::spawn(move || {
                    let Ok(read_half) = stream.try_clone() else {
                        return;
                    };
                    session(BufReader::new(read_half), stream, jobs);
                });
            }
        }));
    }
    #[cfg(unix)]
    let unix_wake: Option<PathBuf> = listeners
        .unix
        .as_ref()
        .and_then(|l| l.local_addr().ok())
        .and_then(|a| a.as_pathname().map(PathBuf::from));
    #[cfg(unix)]
    if let Some(listener) = listeners.unix {
        let jobs = jobs_tx.clone();
        let stop = Arc::clone(&stop);
        acceptors.push(thread::spawn(move || {
            for conn in listener.incoming() {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let jobs = jobs.clone();
                thread::spawn(move || {
                    let Ok(read_half) = stream.try_clone() else {
                        return;
                    };
                    session(BufReader::new(read_half), stream, jobs);
                });
            }
        }));
    }
    // The node loop holds the only other sender clone sites; dropping
    // ours means `recv` hangs up once the acceptors are gone too.
    drop(jobs_tx);
    let outcome = node_loop(node, jobs_rx, &opts);
    // Wake each acceptor out of its blocking accept so it observes stop.
    stop.store(true, Ordering::Release);
    if let Some(addr) = tcp_wake {
        let _ = TcpStream::connect(addr);
    }
    #[cfg(unix)]
    if let Some(path) = unix_wake {
        let _ = UnixStream::connect(path);
    }
    for acceptor in acceptors {
        let _ = acceptor.join();
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgp::estimate_on_feed;
    use sgs_query::{ServeConfig, ServerNode};
    use sgs_stream::{ShardedFeed, TurnstileStream};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sgs_core_serve_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parse_request_grammar() {
        assert!(matches!(
            parse_request("INGEST 3 7 +1"),
            Ok(Request::Ingest {
                u: 3,
                v: 7,
                delta: 1
            })
        ));
        assert!(matches!(
            parse_request("ingest 3 7 -1"),
            Ok(Request::Ingest { delta: -1, .. })
        ));
        assert!(parse_request("INGEST 3 7").is_err());
        assert!(parse_request("INGEST 3 7 1 junk").is_err());
        assert!(parse_request("INGEST a b 1").is_err());
        assert!(matches!(parse_request("STAT"), Ok(Request::Stat)));
        assert!(matches!(parse_request("SNAPSHOT"), Ok(Request::Snapshot)));
        assert!(matches!(parse_request("QUIT"), Ok(Request::Quit)));
        assert!(parse_request("NONSENSE").is_err());

        let Ok(Request::Count(spec)) =
            parse_request("COUNT triangle trials=60 seed=9 reservoir=offer relaxed")
        else {
            panic!("COUNT should parse");
        };
        assert_eq!(spec.trials, 60);
        assert_eq!(spec.seed, Some(9));
        assert!(matches!(spec.reservoir, ReservoirMode::Offer));
        assert!(spec.relaxed && spec.model == Model::Insertion);

        assert!(parse_request("COUNT").is_err());
        assert!(parse_request("COUNT nosuch").is_err());
        assert!(parse_request("COUNT triangle trials=x").is_err());
        // A client cannot make the node allocate past the trial cap.
        let at_cap = format!("COUNT triangle trials={MAX_TRIALS}");
        assert!(parse_request(&at_cap).is_ok());
        let over = format!("COUNT triangle trials={}", MAX_TRIALS + 1);
        assert!(parse_request(&over).unwrap_err().contains("exceeds"));
        assert!(parse_request(&format!("COUNT triangle trials={}", usize::MAX)).is_err());
        // Reservoirs and relaxed make no sense under turnstile.
        assert!(parse_request("COUNT triangle turnstile relaxed").is_err());
        assert!(parse_request("COUNT triangle turnstile reservoir=skip").is_err());
        assert!(parse_request("COUNT triangle turnstile trials=5").is_ok());
    }

    fn send(r: &mut BufReader<TcpStream>, w: &mut TcpStream, line: &str) -> String {
        writeln!(w, "{line}").unwrap();
        w.flush().unwrap();
        let mut reply = String::new();
        r.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }

    #[test]
    fn tcp_session_answers_match_batch_bits() {
        let dir = tmp("tcp_session");
        let cfg = ServeConfig {
            shards: 2,
            wal_block: 8,
            ..ServeConfig::default()
        };
        let node = ServerNode::create(&dir, cfg, ExecPolicy::serial()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            run_server(
                node,
                Listeners {
                    tcp: Some(listener),
                    #[cfg(unix)]
                    unix: None,
                },
                ServeOptions::new(ExecPolicy::serial()),
            )
        });

        let mut w = TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(w.try_clone().unwrap());
        // A deterministic little turnstile script over 12 vertices.
        let mut updates: Vec<(u32, u32, i8)> = Vec::new();
        let mut x = 5u64;
        let mut live = std::collections::HashSet::new();
        while updates.len() < 40 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (x >> 33) as u32 % 12;
            let v = (x >> 17) as u32 % 12;
            if u == v {
                continue;
            }
            let key = (u.min(v), u.max(v));
            if live.insert(key) {
                updates.push((u, v, 1));
            }
        }
        for (k, &(u, v, d)) in updates.iter().enumerate() {
            let reply = send(&mut r, &mut w, &format!("INGEST {u} {v} {d:+}"));
            assert_eq!(reply, format!("OK {k}"), "position echo for update {k}");
        }
        assert_eq!(
            send(&mut r, &mut w, "INGEST 0 0 +1"),
            "ERR self-loop on vertex 0"
        );
        let stat = send(&mut r, &mut w, "STAT");
        assert!(stat.starts_with("OK updates="), "{stat}");
        assert!(stat.contains("edges=40"), "{stat}");
        assert!(stat.contains("shards=2"), "{stat}");

        let reply = send(&mut r, &mut w, "COUNT triangle trials=50 seed=9");
        assert!(reply.starts_with("OK #triangle ≈ "), "{reply}");
        let bits_hex = reply.split("bits=").nth(1).expect("bits field");
        let live_bits = u64::from_str_radix(bits_hex.trim(), 16).unwrap();
        assert!(reply.contains("prefix=40"), "{reply}");

        // The same estimate computed batch-side over the same prefix.
        // The node's vertex bound is max endpoint + 1; match it exactly.
        let n = updates.iter().map(|&(u, v, _)| u.max(v) + 1).max().unwrap() as usize;
        let stream = TurnstileStream::from_updates(
            n,
            updates
                .iter()
                .map(|&(u, v, d)| sgs_stream::EdgeUpdate {
                    edge: sgs_graph::Edge::new(sgs_graph::VertexId(u), sgs_graph::VertexId(v)),
                    delta: d,
                })
                .collect::<Vec<_>>(),
        );
        let feed = ShardedFeed::partition(&stream, 2);
        let mut arena = RouterArena::new();
        let batch = estimate_on_feed(
            &QuerySpec::new(Pattern::triangle(), 50, 9),
            Model::Insertion,
            &feed,
            &mut arena,
            ServeOptions::new(ExecPolicy::serial()).pass,
            ExecPolicy::serial(),
        )
        .unwrap();
        assert_eq!(live_bits, batch.estimate.to_bits());

        // A turnstile COUNT over the same prefix also answers.
        let t = send(&mut r, &mut w, "COUNT triangle trials=30 seed=4 turnstile");
        assert!(t.starts_with("OK #triangle ≈ "), "{t}");

        let snap = send(&mut r, &mut w, "SNAPSHOT");
        assert!(snap.starts_with("OK snapshot seq="), "{snap}");
        assert_eq!(send(&mut r, &mut w, "QUIT"), "BYE");
        let summary = server.join().unwrap().unwrap();
        assert_eq!(summary.updates, 40);
        assert_eq!(summary.served, 2);
    }

    #[test]
    fn concurrent_counts_multiplex_and_still_match_solo() {
        let dir = tmp("mux");
        let cfg = ServeConfig {
            shards: 1,
            wal_block: 8,
            ..ServeConfig::default()
        };
        let node = ServerNode::create(&dir, cfg, ExecPolicy::serial()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            run_server(
                node,
                Listeners {
                    tcp: Some(listener),
                    #[cfg(unix)]
                    unix: None,
                },
                ServeOptions::new(ExecPolicy::serial()),
            )
        });

        let mut w = TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(w.try_clone().unwrap());
        for i in 0..10u32 {
            for j in (i + 1)..10 {
                let reply = send(&mut r, &mut w, &format!("INGEST {i} {j} +1"));
                assert!(reply.starts_with("OK "), "{reply}");
            }
        }
        // Several clients COUNT concurrently; every answer must match the
        // byte-exact solo estimate regardless of how the node batched.
        let clients: Vec<_> = (0..4u64)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut w = TcpStream::connect(addr).unwrap();
                    let mut r = BufReader::new(w.try_clone().unwrap());
                    send(
                        &mut r,
                        &mut w,
                        &format!("COUNT triangle trials=40 seed={}", 100 + c),
                    )
                })
            })
            .collect();
        let replies: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();

        let edges: Vec<sgs_graph::Edge> = (0..10u32)
            .flat_map(|i| {
                ((i + 1)..10).map(move |j| {
                    sgs_graph::Edge::new(sgs_graph::VertexId(i), sgs_graph::VertexId(j))
                })
            })
            .collect();
        let ins = sgs_stream::InsertionStream::from_edge_order(10, edges);
        let feed = ShardedFeed::partition(&ins, 1);
        for (c, reply) in replies.iter().enumerate() {
            let bits_hex = reply.split("bits=").nth(1).unwrap_or_else(|| {
                panic!("client {c} got no bits field: {reply}");
            });
            let live_bits = u64::from_str_radix(bits_hex.trim(), 16).unwrap();
            let mut arena = RouterArena::new();
            let solo = estimate_on_feed(
                &QuerySpec::new(Pattern::triangle(), 40, 100 + c as u64),
                Model::Insertion,
                &feed,
                &mut arena,
                ServeOptions::new(ExecPolicy::serial()).pass,
                ExecPolicy::serial(),
            )
            .unwrap();
            assert_eq!(live_bits, solo.estimate.to_bits(), "client {c}");
        }

        let mut w = TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(w.try_clone().unwrap());
        assert_eq!(send(&mut r, &mut w, "QUIT"), "BYE");
        server.join().unwrap().unwrap();
    }
}
