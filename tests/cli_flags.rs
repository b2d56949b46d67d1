//! `sgs` flag handling through the real binary: an unparsable number or
//! a flag a subcommand does not take exits 2 with a message naming the
//! flag, instead of silently running with a default.

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_sgs");

/// A small K5 edge file (10 triangles), unique per test.
fn edges_file(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("sgs-cli-{tag}-{}.txt", std::process::id()));
    let mut text = String::new();
    for u in 0..5 {
        for v in u + 1..5 {
            text.push_str(&format!("{u} {v}\n"));
        }
    }
    std::fs::write(&path, text).unwrap();
    path
}

fn sgs(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("run sgs")
}

fn assert_usage_error(out: &Output, needles: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "stderr lacks '{needle}': {stderr}");
    }
    assert!(out.stdout.is_empty(), "nothing may run: {:?}", out.stdout);
}

#[test]
fn unparsable_numbers_exit_2_naming_flag_and_value() {
    let edges = edges_file("num");
    let e = edges.to_str().unwrap();
    let out = sgs(&[
        "count",
        "--edges",
        e,
        "--pattern",
        "triangle",
        "--trials",
        "abc",
    ]);
    assert_usage_error(&out, &["--trials", "abc"]);
    let out = sgs(&[
        "count",
        "--edges",
        e,
        "--pattern",
        "triangle",
        "--shards",
        "-2",
    ]);
    assert_usage_error(&out, &["--shards"]);
    let out = sgs(&["count", "--edges", e, "--pattern", "triangle", "--eps"]);
    assert_usage_error(&out, &["--eps"]);
    let out = sgs(&["cliques", "--edges", e, "-r", "four"]);
    assert_usage_error(&out, &["-r", "four"]);
    std::fs::remove_file(&edges).unwrap();
}

#[test]
fn unknown_flags_exit_2_per_subcommand() {
    let edges = edges_file("unknown");
    let e = edges.to_str().unwrap();
    let out = sgs(&[
        "count",
        "--edges",
        e,
        "--pattern",
        "triangle",
        "--bogus",
        "3",
    ]);
    assert_usage_error(&out, &["sgs count", "--bogus"]);
    // A real flag of another subcommand is still unknown here.
    let out = sgs(&["info", "--edges", e, "--trials", "5"]);
    assert_usage_error(&out, &["sgs info", "--trials"]);
    let out = sgs(&["rho", "--pattern", "C5", "--listen", "x"]);
    assert_usage_error(&out, &["sgs rho", "--listen"]);
    std::fs::remove_file(&edges).unwrap();
}

#[test]
fn known_flags_still_run() {
    let edges = edges_file("ok");
    let e = edges.to_str().unwrap();
    let out = sgs(&[
        "count",
        "--edges",
        e,
        "--pattern",
        "triangle",
        "--trials",
        "500",
        "--turnstile",
        "--shards",
        "2",
        "--seed",
        "3",
        "--bits",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("hits") && stdout.contains("/500"),
        "{stdout}"
    );
    assert!(stdout.contains("bits="), "{stdout}");
    let out = sgs(&["rho", "--pattern", "C5"]);
    assert!(out.status.success());
    std::fs::remove_file(&edges).unwrap();
}

/// A seeded edge file on `n` vertices with about `m` distinct edges.
fn random_edges_file(tag: &str, n: u64, m: usize) -> PathBuf {
    let path = std::env::temp_dir().join(format!("sgs-cli-{tag}-{}.txt", std::process::id()));
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut seen = std::collections::HashSet::new();
    while seen.len() < m {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let (u, v) = ((x >> 33) % n, (x >> 13) % n);
        if u != v {
            seen.insert((u.min(v), u.max(v)));
        }
    }
    let text: String = seen.iter().map(|(u, v)| format!("{u} {v}\n")).collect();
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn shards_out_of_range_exit_2_naming_the_flag() {
    let edges = edges_file("shards");
    let e = edges.to_str().unwrap();
    for bad in ["0", "65536", "70000"] {
        let out = sgs(&[
            "count",
            "--edges",
            e,
            "--pattern",
            "triangle",
            "--shards",
            bad,
        ]);
        assert_usage_error(&out, &["--shards", bad]);
    }
    std::fs::remove_file(&edges).unwrap();
    serve_refuses("shards", &["--shards", "70000"]);
}

/// `sgs serve DIR FLAGS` must exit 2 naming the flag before it writes
/// anything: a CONFIG left behind would make every later restart of the
/// directory fail.
fn serve_refuses(tag: &str, flags: &[&str]) {
    let dir = std::env::temp_dir().join(format!("sgs-cli-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut child = Command::new(BIN)
        .arg("serve")
        .arg(&dir)
        .args(flags)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("run sgs serve");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while child.try_wait().unwrap().is_none() {
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("sgs serve {flags:?} did not exit");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = child.wait_with_output().unwrap();
    assert_usage_error(&out, flags);
    assert!(!dir.join("CONFIG").exists(), "serve wrote CONFIG");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eps_must_be_finite_and_positive() {
    // Every estimator divides by eps (or asserts eps > 0): 0, negative
    // and NaN used to abort inside the library, inf to run one trial.
    let edges = edges_file("eps");
    let e = edges.to_str().unwrap();
    let queries = std::env::temp_dir().join(format!("sgs-cli-eps-q-{}.txt", std::process::id()));
    std::fs::write(&queries, "triangle\n").unwrap();
    let q = queries.to_str().unwrap();
    for bad in ["0", "-1", "nan", "inf"] {
        for args in [
            &["count", "--edges", e, "--pattern", "triangle"][..],
            &["count", "--edges", e, "--queries", q],
            &["search", "--edges", e, "--pattern", "triangle"],
            &["cliques", "--edges", e, "-r", "4"],
        ] {
            let out = sgs(&[args, &["--eps", bad]].concat());
            assert_usage_error(&out, &["--eps"]);
        }
    }
    serve_refuses("eps", &["--eps", "0"]);
    std::fs::remove_file(&edges).unwrap();
    std::fs::remove_file(&queries).unwrap();
}

#[test]
fn huge_vertex_id_is_a_line_error_not_an_abort() {
    let path = std::env::temp_dir().join(format!("sgs-cli-hugeid-{}.txt", std::process::id()));
    std::fs::write(&path, "0 1\n0 4000000000\n").unwrap();
    let out = sgs(&[
        "count",
        "--edges",
        path.to_str().unwrap(),
        "--pattern",
        "triangle",
    ]);
    assert_usage_error(&out, &["line 2", "4000000000"]);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn shard_count_never_changes_the_bits() {
    let edges = random_edges_file("bits", 60, 400);
    let e = edges.to_str().unwrap();
    let bits = |shards: &str, turnstile: bool| {
        let mut args = vec![
            "count",
            "--edges",
            e,
            "--pattern",
            "triangle",
            "--trials",
            "2000",
            "--seed",
            "5",
            "--bits",
            "--shards",
            shards,
        ];
        if turnstile {
            args.push("--turnstile");
        }
        let out = sgs(&args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let word = stdout
            .split_whitespace()
            .find(|w| w.starts_with("bits="))
            .unwrap_or_else(|| panic!("no bits= in {stdout}"))
            .to_string();
        word
    };
    for turnstile in [false, true] {
        assert_eq!(
            bits("1", turnstile),
            bits("3", turnstile),
            "turnstile={turnstile}"
        );
    }
    std::fs::remove_file(&edges).unwrap();
}

/// Every `bits=` word of a successful run's stdout, in order.
fn bits_words(out: &Output) -> Vec<String> {
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .split_whitespace()
        .filter(|w| w.starts_with("bits="))
        .map(str::to_string)
        .collect()
}

#[test]
fn multiplexed_bits_match_solo_bits() {
    // An offer-mode and a skip-mode relaxed job share every insertion
    // pass of `--queries`; each must still print its solo run's bits.
    let edges = random_edges_file("muxbits", 60, 400);
    let e = edges.to_str().unwrap();
    let queries =
        std::env::temp_dir().join(format!("sgs-cli-muxbits-q-{}.txt", std::process::id()));
    std::fs::write(
        &queries,
        "triangle trials=3000 seed=5 relaxed reservoir=offer\n\
         triangle trials=3000 seed=5 relaxed\n",
    )
    .unwrap();
    for shards in ["1", "3"] {
        let common = [
            "count", "--edges", e, "--seed", "5", "--bits", "--shards", shards,
        ];
        let mux = bits_words(&sgs(&[
            &common[..],
            &["--queries", queries.to_str().unwrap()],
        ]
        .concat()));
        let solo = |extra: &[&str]| {
            let args = [
                &common[..],
                &["--pattern", "triangle", "--trials", "3000", "--relaxed"],
                extra,
            ];
            bits_words(&sgs(&args.concat()))
        };
        let expected = [solo(&["--reservoir", "offer"]), solo(&[])].concat();
        assert_eq!(expected.len(), 2);
        assert_eq!(mux, expected, "{shards} shards");
    }
    std::fs::remove_file(&edges).unwrap();
    std::fs::remove_file(&queries).unwrap();
}
