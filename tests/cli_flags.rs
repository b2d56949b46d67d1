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
