//! Protocol-level integration tests for `sgs serve` — the real binary
//! behind a real TCP socket.
//!
//! Pinned guarantees:
//! * every COUNT a live node answers is **byte-identical** (`bits=` hex
//!   of the exact f64) to batch `sgs count --updates` over the same
//!   ingested prefix — both models, shards 1/2/4, offer+skip reservoirs;
//! * concurrent client sessions interleave ingest and queries without
//!   torn replies or lost updates;
//! * kill -9 mid-ingest loses only the unflushed tail: a restarted node
//!   reports the durable prefix, resumes ingest at the echoed position,
//!   and answers byte-identically to a batch run over the same updates.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_sgs");

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sgs_serve_protocol_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deterministic strict-turnstile script: distinct inserts, and (when
/// `churn`) every third insert later retracted.
fn script(n: u32, len: usize, churn: bool) -> Vec<(u32, u32, i8)> {
    let mut updates = Vec::new();
    let mut live: Vec<(u32, u32)> = Vec::new();
    let mut x = 77u64;
    while updates.len() < len {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (x >> 33) as u32 % n;
        let v = (x >> 17) as u32 % n;
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if churn && updates.len() % 3 == 2 && !live.is_empty() {
            let victim = live.remove((x >> 7) as usize % live.len());
            updates.push((victim.0, victim.1, -1));
            continue;
        }
        if live.contains(&key) {
            continue;
        }
        live.push(key);
        updates.push((key.0, key.1, 1));
    }
    updates
}

fn write_updates_file(path: &Path, updates: &[(u32, u32, i8)]) {
    let mut text = String::new();
    for &(u, v, d) in updates {
        text.push_str(&format!("{u} {v} {d:+}\n"));
    }
    std::fs::write(path, text).unwrap();
}

struct ServeProc {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
    addr: String,
}

/// Spawn `sgs serve DIR <extra...>` and wait for its LISTENING line.
fn spawn_serve(dir: &Path, extra: &[&str]) -> ServeProc {
    let mut child = Command::new(BIN)
        .arg("serve")
        .arg(dir)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sgs serve");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let read = stdout.read_line(&mut line).expect("read serve stdout");
        assert_ne!(read, 0, "serve exited before LISTENING");
        if let Some(rest) = line.trim().strip_prefix("LISTENING ") {
            break rest.to_string();
        }
    };
    ServeProc {
        child,
        stdout,
        addr,
    }
}

struct Session {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Session {
    fn connect(addr: &str) -> Session {
        let writer = TcpStream::connect(addr).expect("connect to serve node");
        let reader = BufReader::new(writer.try_clone().unwrap());
        Session { reader, writer }
    }

    fn send(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }
}

fn bits_of(reply: &str) -> u64 {
    let hex = reply
        .split("bits=")
        .nth(1)
        .unwrap_or_else(|| panic!("no bits field in: {reply}"))
        .split_whitespace()
        .next()
        .unwrap();
    u64::from_str_radix(hex, 16).unwrap()
}

/// Run batch `sgs count --updates FILE --bits <extra...>` and pull the
/// estimate's bit pattern from the output.
fn batch_bits(updates_file: &Path, extra: &[&str]) -> u64 {
    let out = Command::new(BIN)
        .arg("count")
        .arg("--updates")
        .arg(updates_file)
        .arg("--bits")
        .args(extra)
        .output()
        .expect("run sgs count");
    assert!(
        out.status.success(),
        "sgs count failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    bits_of(std::str::from_utf8(&out.stdout).unwrap())
}

fn ingest_all(session: &mut Session, updates: &[(u32, u32, i8)], expect_from: usize) {
    for (k, &(u, v, d)) in updates.iter().enumerate() {
        let reply = session.send(&format!("INGEST {u} {v} {d:+}"));
        assert_eq!(
            reply,
            format!("OK {}", expect_from + k),
            "position echo for update {}",
            expect_from + k
        );
    }
}

fn wait_shutdown(mut proc: ServeProc) {
    let mut rest = String::new();
    proc.stdout.read_to_string(&mut rest).unwrap();
    let status = proc.child.wait().unwrap();
    assert!(status.success(), "serve exited nonzero; stdout: {rest}");
    assert!(rest.contains("shutdown:"), "no shutdown summary: {rest}");
}

#[test]
fn live_counts_match_batch_cli_across_shards_models_reservoirs() {
    let updates = script(12, 40, false);
    for shards in [1usize, 2, 4] {
        let dir = tmp(&format!("match_{shards}"));
        let updates_file = dir.join("updates.txt");
        write_updates_file(&updates_file, &updates);
        let node_dir = dir.join("node");
        let shards_s = shards.to_string();
        let proc = spawn_serve(
            &node_dir,
            &["--shards", &shards_s, "--wal-block", "8", "--seed", "1"],
        );
        let mut s = Session::connect(&proc.addr);
        ingest_all(&mut s, &updates, 0);

        // Insertion model, both reservoir acceptance schemes.
        for reservoir in ["skip", "offer"] {
            let live = bits_of(&s.send(&format!(
                "COUNT triangle trials=60 seed=9 reservoir={reservoir}"
            )));
            let batch = batch_bits(
                &updates_file,
                &[
                    "--pattern",
                    "triangle",
                    "--trials",
                    "60",
                    "--seed",
                    "9",
                    "--shards",
                    &shards_s,
                    "--reservoir",
                    reservoir,
                ],
            );
            assert_eq!(
                live, batch,
                "insertion/{reservoir} at {shards} shard(s) diverged from batch"
            );
        }

        // Turnstile model over the same prefix.
        let live = bits_of(&s.send("COUNT triangle trials=40 seed=5 turnstile"));
        let batch = batch_bits(
            &updates_file,
            &[
                "--pattern",
                "triangle",
                "--trials",
                "40",
                "--seed",
                "5",
                "--shards",
                &shards_s,
                "--turnstile",
            ],
        );
        assert_eq!(live, batch, "turnstile at {shards} shard(s) diverged");

        assert_eq!(s.send("QUIT"), "BYE");
        wait_shutdown(proc);
    }
}

#[test]
fn concurrent_clients_interleave_ingest_and_queries() {
    let dir = tmp("concurrent");
    let node_dir = dir.join("node");
    let updates = script(14, 60, false);
    let updates_file = dir.join("updates.txt");
    write_updates_file(&updates_file, &updates);
    let proc = spawn_serve(&node_dir, &["--wal-block", "8", "--seed", "1"]);

    // One session ingests the first half so queries have substance.
    let mut feeder = Session::connect(&proc.addr);
    ingest_all(&mut feeder, &updates[..30], 0);

    // Concurrent sessions: more ingest interleaved with COUNTs and STATs
    // from other clients. Every reply must be well-formed for ITS request
    // (no torn or misrouted replies).
    let addr = proc.addr.clone();
    let tail: Vec<(u32, u32, i8)> = updates[30..].to_vec();
    let ingester = std::thread::spawn(move || {
        let mut s = Session::connect(&addr);
        ingest_all(&mut s, &tail, 30);
    });
    let queriers: Vec<_> = (0..3u64)
        .map(|c| {
            let addr = proc.addr.clone();
            std::thread::spawn(move || {
                let mut s = Session::connect(&addr);
                for round in 0..4u64 {
                    let reply = s.send(&format!(
                        "COUNT triangle trials=30 seed={}",
                        50 + 10 * c + round
                    ));
                    assert!(
                        reply.starts_with("OK #triangle ≈ "),
                        "client {c} round {round}: {reply}"
                    );
                    assert!(reply.contains("bits="), "{reply}");
                    let stat = s.send("STAT");
                    assert!(stat.starts_with("OK updates="), "{stat}");
                }
            })
        })
        .collect();
    ingester.join().unwrap();
    for q in queriers {
        q.join().unwrap();
    }

    // With all 60 updates in, a COUNT matches the batch run exactly.
    let stat = feeder.send("STAT");
    assert!(stat.contains("edges=60"), "all updates must land: {stat}");
    let live = bits_of(&feeder.send("COUNT triangle trials=50 seed=7"));
    let batch = batch_bits(
        &updates_file,
        &["--pattern", "triangle", "--trials", "50", "--seed", "7"],
    );
    assert_eq!(live, batch);
    // A trial count past the cap is refused, and the session and node
    // carry on serving.
    let over = subgraph_streams::core::fgp::MAX_TRIALS + 1;
    let refused = feeder.send(&format!("COUNT triangle trials={over} seed=7"));
    assert!(refused.starts_with("ERR "), "{refused}");
    assert_eq!(
        bits_of(&feeder.send("COUNT triangle trials=50 seed=7")),
        live
    );
    assert_eq!(feeder.send("QUIT"), "BYE");
    wait_shutdown(proc);
}

#[test]
fn kill_nine_mid_ingest_then_restart_resumes_byte_identical() {
    let dir = tmp("kill9");
    let node_dir = dir.join("node");
    // A churny strict-turnstile script: deletions force the turnstile
    // model, the interesting recovery case.
    let updates = script(10, 41, true);
    let args = ["--wal-block", "4", "--snapshot-every", "2", "--seed", "1"];

    let mut proc = spawn_serve(&node_dir, &args);
    let mut s = Session::connect(&proc.addr);
    ingest_all(&mut s, &updates[..37], 0);
    // kill -9 mid-ingest: 36 updates are in sealed WAL blocks (wal-block
    // 4), the 37th is pending and MUST be lost.
    proc.child.kill().unwrap();
    proc.child.wait().unwrap();

    // Restart over the same directory: the persisted config wins and the
    // node reports the durable prefix.
    let proc = spawn_serve(&node_dir, &[]);
    let mut s = Session::connect(&proc.addr);
    let stat = s.send("STAT");
    assert!(
        stat.contains("updates=36") && stat.contains("pending=0"),
        "durable prefix after kill -9: {stat}"
    );
    // The ring cursor checkpoint survived: produced == consumed.
    assert!(stat.contains("ring_produced=9"), "{stat}");
    assert!(stat.contains("ring_consumed=9"), "{stat}");

    // A COUNT over the recovered 36-update prefix is byte-identical to a
    // batch run over that exact prefix.
    let prefix_file = dir.join("prefix.txt");
    write_updates_file(&prefix_file, &updates[..36]);
    let live = bits_of(&s.send("COUNT triangle trials=40 seed=3 turnstile"));
    assert_eq!(
        live,
        batch_bits(
            &prefix_file,
            &[
                "--pattern",
                "triangle",
                "--trials",
                "40",
                "--seed",
                "3",
                "--turnstile"
            ],
        ),
        "recovered prefix diverged from batch"
    );

    // Ingest resumes at the echoed position (36), replaying the lost
    // tail and the rest of the script.
    ingest_all(&mut s, &updates[36..], 36);
    let full_file = dir.join("full.txt");
    write_updates_file(&full_file, &updates);
    let live = bits_of(&s.send("COUNT triangle trials=40 seed=3 turnstile"));
    assert_eq!(
        live,
        batch_bits(
            &full_file,
            &[
                "--pattern",
                "triangle",
                "--trials",
                "40",
                "--seed",
                "3",
                "--turnstile"
            ],
        ),
        "post-recovery stream diverged from batch"
    );

    // Graceful shutdown this time; a second restart then serves the
    // sealed log and still answers identically.
    assert_eq!(s.send("QUIT"), "BYE");
    wait_shutdown(proc);
    let proc = spawn_serve(&node_dir, &[]);
    let mut s = Session::connect(&proc.addr);
    let live = bits_of(&s.send("COUNT triangle trials=40 seed=3 turnstile"));
    assert_eq!(
        live,
        batch_bits(
            &full_file,
            &[
                "--pattern",
                "triangle",
                "--trials",
                "40",
                "--seed",
                "3",
                "--turnstile"
            ],
        ),
        "answers must survive a graceful restart cycle"
    );
    assert_eq!(s.send("QUIT"), "BYE");
    wait_shutdown(proc);
}
