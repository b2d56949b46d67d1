#!/usr/bin/env python3
"""End-to-end benchmark of `sgs count` and `sgs serve`.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Builds `sgs` (`cargo build --release`) and the `sgs-perfbench` helper in
this directory, generates the workload's inputs from the seed, runs the
real `sgs` binary as a child process and checks every answer against an
exact count. `--trace 0` reports the end-to-end metrics; `--trace 1`
also runs the helper's traced in-process replay, checks that it
reproduces the child's answers bit for bit, and reports the per-layer
metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Progress, provenance and
sample counts go to standard error.

`--smoke` runs every workload on toy inputs with every check and the
schema validation, and prints no timings. See perfbench/README.md.
"""

import argparse
import collections
import json
import os
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import check  # noqa: E402

WORKLOADS = ("batch-insertion", "batch-turnstile", "batch-multi", "serve-mixed")
# Set-up time is short (12-50 ms for the batch workloads), so each run
# repeats it and reports the median.
BATCH_SETUP_REPS = 15
SERVE_SETUP_REPS = 5
# No child may outlive this; a run exits within 180 s.
CHILD_TIMEOUT_S = 150
# Open-loop load generator health: a run whose sends ran later than this
# behind schedule measured the generator, not the node, and is invalid.
LAG_P99_BOUND_MS = 25.0
LAG_MAX_BOUND_MS = 250.0


# Traffic of `serve-mixed` after the preload: open-loop INGESTs and COUNTs
# (per second) on two Unix connections for `--seconds`, then closed-loop
# INGEST probes over TCP. At 5 COUNT/s the node loop is ≈25% busy, so a
# slower host stretches the latencies without tipping the node into a
# growing queue.
ServeLoad = collections.namedtuple("ServeLoad", "ingest_rate count_rate tcp_probes")
FULL_LOAD = ServeLoad(ingest_rate=1000, count_rate=5, tcp_probes=40)
TOY_LOAD = ServeLoad(ingest_rate=200, count_rate=5, tcp_probes=3)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Fatal(Exception):
    """The benchmark cannot run: exit non-zero without a result."""


class Tally:
    """Operations attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.invalid = []

    def add(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def invalidate(self, why):
        log(f"invalid run: {why}")
        self.invalid.append(why)


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q% of
    the samples at or below it."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, -(-len(s) * q // 100) - 1))
    return s[int(k)]


# ---------------------------------------------------------------- build


def build():
    """Build `sgs` and the helper; return the two executables."""
    missing = [p for p in ("Cargo.toml", "src/bin/sgs.rs", "crates") if not (ROOT / p).exists()]
    if missing:
        raise Fatal(f"{ROOT} is not a checkout of the repository ({', '.join(missing)} missing)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (["cargo", "build", "--release", "--offline", "--bin", "sgs"],
                ["cargo", "build", "--release", "--offline",
                 "--manifest-path", str(HERE / "Cargo.toml")]):
        try:
            code = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                  stderr=sys.stderr).returncode
        except FileNotFoundError as e:
            raise Fatal(f"cannot run cargo: {e}") from e
        if code != 0:
            raise Fatal(f"{' '.join(cmd)} failed with exit code {code}")
    return target / "release" / "sgs", target / "release" / "sgs-perfbench"


def provenance():
    def cmd_out(argv):
        try:
            return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    threads = os.environ.get("SGS_SHARD_THREADS")
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": cmd_out(["rustc", "--version"]),
        "commit": cmd_out(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
        "rustflags": os.environ.get("RUSTFLAGS", ""),
        "exec_policy": (f"SGS_SHARD_THREADS={threads}" if threads is not None
                        else "SGS_SHARD_THREADS unset: auto, threads when >1 core"),
    }


# ---------------------------------------------------------------- children


def run_child(argv, cwd):
    """Run one child to completion. Returns (wall seconds, exit code,
    stdout, rusage) with the child's own peak RSS and page faults."""
    with open(cwd / "child.out", "wb") as out, open(cwd / "child.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, (cwd / "child.out").read_text(), usage


def helper(pb, cmd, workload, seed, work, toy):
    argv = [pb, cmd, "--workload", workload, "--seed", str(seed), "--dir", work]
    if toy:
        argv.append("--toy")
    wall, code, out, _ = run_child(argv, work)
    if code != 0:
        err = (work / "child.err").read_text().strip()
        raise Fatal(f"sgs-perfbench {cmd} failed ({code}): {err}")
    return out


# ---------------------------------------------------------------- batch


def batch_once(sgs, plan, work, tally, setup=False):
    """One `sgs count` child: wall time, usage, parsed answers."""
    argv = [sgs] + plan["setup_args" if setup else "args"]
    wall, code, out, usage = run_child(argv, work)
    answers = check.parse_count_output(out)
    want = plan["answers"]
    if code != 0:
        log(f"sgs count exited {code}")
        tally.add(len(want), len(want))
    else:
        tally.add(len(want), check.check_batch_answers(answers, want, plan["checks"],
                                                       statistical=not setup))
    return wall, usage, answers


def batch_e2e(sgs, plan, work, seconds, tally):
    setup = [batch_once(sgs, plan, work, tally, setup=True)[0] for _ in range(BATCH_SETUP_REPS)]
    walls, rss, first = [], [], None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        wall, usage, answers = batch_once(sgs, plan, work, tally)
        walls.append(wall)
        rss.append(usage.ru_maxrss / 1024.0)
        # Same seed, same inputs: every run must print the same answers.
        first = first or answers
        if answers != first:
            tally.add(0, 1)
    log(f"{len(setup)} set-up runs; {len(walls)} timed `sgs count` runs (s): "
        + " ".join(f"{w:.3f}" for w in walls))
    return {"setup_s": statistics.median(setup),
            "count_p50_ms": statistics.median(walls) * 1e3,
            "peak_rss_mb": statistics.median(rss)}


def same_answers(e2e, traced):
    """Whether the traced run reproduced the child's answers bit for bit."""
    got = [(a["name"], a["hits"], a["trials"], a["bits"]) for a in traced]
    return got == list(e2e)


def batch_traced(sgs, pb, plan, work, workload, seed, seconds, tally, toy):
    rows = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not rows or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        wall, usage, answers = batch_once(sgs, plan, work, tally)
        report = json.loads(helper(pb, "trace", workload, seed, work, toy))
        tally.add(1, 0)
        if not same_answers(answers, report["answers"]):
            tally.add(0, 1)
            tally.invalidate("traced run did not reproduce the answers of `sgs count`")
        m = report["metrics"]
        traced_s = report["wall_ns"] / 1e9
        m["trace.overhead"] = traced_s / wall
        m["trace.span_cover"] = report["covered_ns"] / report["wall_ns"]
        m["proc.cli_ms"] = (wall - traced_s) * 1e3
        m["proc.minor_faults"] = usage.ru_minflt
        rows.append(m)
        last = time.perf_counter() - t0
    log(f"{len(rows)} traced runs; span cover {rows[0]['trace.span_cover']:.3f}")
    return {k: statistics.median(r.get(k, 0.0) for r in rows) for k in rows[0]}


# ---------------------------------------------------------------- serve


class Conn:
    """A non-blocking protocol connection: request lines queue up and go
    out as the socket takes them; each reply line is matched, in order,
    to its request's scheduled send time."""

    def __init__(self, sock, sel):
        sock.setblocking(False)
        self.sock, self.sel = sock, sel
        self.out = bytearray()
        self.buf = bytearray()
        self.waiting = collections.deque()
        self.replies = []  # (scheduled, received, line)
        self.events = selectors.EVENT_READ
        sel.register(sock, self.events, self)

    def send(self, line, scheduled):
        self.out += line.encode() + b"\n"
        self.waiting.append(scheduled)
        self.flush()

    def flush(self):
        try:
            while self.out:
                del self.out[:self.sock.send(self.out)]
        except BlockingIOError:
            pass
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self.out else 0)
        if events != self.events:
            self.events = events
            self.sel.modify(self.sock, events, self)

    def readable(self, now):
        data = self.sock.recv(1 << 16)
        if not data:
            raise Fatal("sgs serve closed a connection")
        self.buf += data
        while True:
            end = self.buf.find(b"\n")
            if end < 0:
                return
            line = self.buf[:end].decode("utf-8", "replace")
            del self.buf[:end + 1]
            self.replies.append((self.waiting.popleft(), now, line))

    def close(self):
        self.sel.unregister(self.sock)
        self.sock.close()


def pump(sel, until):
    """Handle socket events until `until` (perf_counter seconds)."""
    for key, events in sel.select(max(0.0, until - time.perf_counter())):
        if events & selectors.EVENT_WRITE:
            key.data.flush()
        if events & selectors.EVENT_READ:
            key.data.readable(time.perf_counter())


def drain(sel, conns, timeout=60.0):
    deadline = time.perf_counter() + timeout
    while any(c.waiting for c in conns):
        if time.perf_counter() > deadline:
            raise Fatal("sgs serve stopped answering")
        pump(sel, min(deadline, time.perf_counter() + 0.5))


class Node:
    """One `sgs serve` child listening on a Unix socket and on TCP."""

    def __init__(self, sgs, work, name):
        self.dir = work / name
        shutil.rmtree(self.dir, ignore_errors=True)
        sock = work / f"{name}.sock"
        self.unix_path = min(str(sock), os.path.relpath(sock), key=len)
        self.err = open(work / f"{name}.err", "wb")
        self.proc = subprocess.Popen(
            [str(sgs), "serve", name, "--unix", f"{name}.sock", "--listen", "127.0.0.1:0"],
            cwd=work, stdout=subprocess.PIPE, stderr=self.err)
        self.timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.timer.start()
        self.usage = None
        self.tcp_port = None
        unix_ready = False
        while self.tcp_port is None or not unix_ready:
            line = self.proc.stdout.readline().decode()
            if not line:
                self.stop()
                raise Fatal("sgs serve exited before listening")
            if line.startswith("LISTENING unix:"):
                unix_ready = True
            elif line.startswith("LISTENING "):
                self.tcp_port = int(line.rsplit(":", 1)[1])

    def unix(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(self.unix_path)
        return s

    def stop(self, conn=None, sel=None):
        """QUIT (over `conn` when given) and reap the child."""
        if self.proc.returncode is None and conn is not None:
            conn.send("QUIT", time.perf_counter())
            drain(sel, [conn])
            if conn.replies[-1][2] != "BYE":
                raise Fatal(f"QUIT answered {conn.replies[-1][2]!r}")
        if self.proc.returncode is None:
            if conn is None:
                self.proc.kill()
            _, status, self.usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.timer.cancel()
        self.proc.stdout.close()
        self.err.close()
        return self.proc.returncode


def serve_e2e(sgs, plan, work, seconds, tally, load):
    """Set up `SERVE_SETUP_REPS` nodes (spawn + preload), then drive the
    last one: open loop for `seconds`, then the TCP probes."""
    updates = (work / "updates.txt").read_text().splitlines()
    prefix_tri = [int(x) for x in (work / "prefix_triangles.txt").read_text().split()]
    preload = plan["preload"]
    ingest_n = int(load.ingest_rate * seconds)
    if preload + ingest_n + load.tcp_probes > len(updates):
        raise Fatal(f"{seconds} s of ingest needs more than the {len(updates)} pool updates")
    sel = selectors.DefaultSelector()
    setup = []
    node = a = None
    try:
        for rep in range(SERVE_SETUP_REPS):
            t0 = time.perf_counter()
            node = Node(sgs, work, f"node{rep}")
            a = Conn(node.unix(), sel)
            for u in updates[:preload]:
                a.send(f"INGEST {u}", t0)
            drain(sel, [a])
            setup.append(time.perf_counter() - t0)
            tally.add(preload, check.check_ingest_replies([r[2] for r in a.replies], 0))
            if rep + 1 < SERVE_SETUP_REPS:
                node.stop(a, sel)
                a.close()
                shutil.rmtree(node.dir, ignore_errors=True)
        a.replies.clear()

        # Open loop: INGEST and COUNT on two connections, each request
        # timed from when it was due.
        b = Conn(node.unix(), sel)
        start = time.perf_counter() + 0.05
        due = [(start + i / load.ingest_rate, a, f"INGEST {updates[preload + i]}")
               for i in range(ingest_n)]
        due += [(start + (j + 0.5) / load.count_rate, b, plan["count"])
                for j in range(int(load.count_rate * seconds))]
        due.sort(key=lambda d: d[0])
        lag = []
        for when, conn, line in due:
            while time.perf_counter() < when:
                pump(sel, when)
            now = time.perf_counter()
            lag.append(now - when)
            conn.send(line, when)
        drain(sel, [a, b])
        mixed_end = time.perf_counter()
        ingest_ms = [(r - s) * 1e3 for s, r, _ in a.replies]
        count_ms = [(r - s) * 1e3 for s, r, _ in b.replies]
        tally.add(ingest_n, check.check_ingest_replies([r[2] for r in a.replies], preload))
        counts = []
        for _, _, line in b.replies:
            ok = check.check_count_reply(line, prefix_tri, plan["rho"], plan["trials"])
            tally.add(1, 0 if ok else 1)
            parsed = check.parse_count_reply(line)
            if parsed:
                counts.append(parsed)
        b.close()

        # Closed loop over TCP: one INGEST at a time.
        tcp_ms, tcp_replies = [], []
        with socket.create_connection(("127.0.0.1", node.tcp_port), timeout=60) as s:
            f = s.makefile("rb")
            for k in range(load.tcp_probes):
                t0 = time.perf_counter()
                s.sendall(f"INGEST {updates[preload + ingest_n + k]}\n".encode())
                tcp_replies.append(f.readline().decode().strip())
                tcp_ms.append((time.perf_counter() - t0) * 1e3)
            f.close()
        tally.add(load.tcp_probes,
                  check.check_ingest_replies(tcp_replies, preload + ingest_n))
        code = node.stop(a, sel)
        if code != 0:
            log(f"sgs serve exited {code}")
            tally.add(1, 1)
    finally:
        if node is not None:
            node.stop()
        sel.close()

    lag_ms = [x * 1e3 for x in lag]
    stats = {
        "setup": setup, "ingest_ms": ingest_ms, "count_ms": count_ms, "tcp_ms": tcp_ms,
        "lag_ms": lag_ms, "counts": counts, "usage": node.usage,
        "total": preload + ingest_n + load.tcp_probes,
        "mixed": (preload, preload + ingest_n), "mixed_s": mixed_end - start,
    }
    log(f"serve: {len(setup)} set-ups, {len(ingest_ms)} INGEST, {len(count_ms)} COUNT "
        f"and {len(tcp_ms)} TCP samples; generator lag p99 {percentile(lag_ms, 99):.3f} ms, "
        f"max {max(lag_ms):.3f} ms")
    if percentile(lag_ms, 99) > LAG_P99_BOUND_MS or max(lag_ms) > LAG_MAX_BOUND_MS:
        tally.invalidate(f"load generator lagged (p99 {percentile(lag_ms, 99):.2f} ms, "
                         f"max {max(lag_ms):.2f} ms; bounds {LAG_P99_BOUND_MS}/{LAG_MAX_BOUND_MS})")
    return stats


def serve_metrics(stats):
    return {"setup_s": statistics.median(stats["setup"]),
            "count_p50_ms": statistics.median(stats["count_ms"]),
            "peak_rss_mb": stats["usage"].ru_maxrss / 1024.0}


def serve_traced(pb, stats, work, seed, tally, toy):
    lines = [f"{stats['total']} {stats['mixed'][0]} {stats['mixed'][1]}"]
    lines += [str(c[3]) for c in stats["counts"]]
    (work / "serve_log.txt").write_text("\n".join(lines) + "\n")
    report = json.loads(helper(pb, "trace", "serve-mixed", seed, work, toy))
    tally.add(1, 0)
    live = [(c[0], c[1], c[2], c[4]) for c in stats["counts"]]
    if not same_answers(live, report["answers"]):
        tally.add(0, 1)
        tally.invalidate("the in-process replay did not reproduce the COUNT replies bit for bit")
    m = report["metrics"]
    ingest_p50 = statistics.median(stats["ingest_ms"])
    count_p50 = statistics.median(stats["count_ms"])
    m["serve.node_busy"] = m.pop("serve.node_mixed_ms") / (stats["mixed_s"] * 1e3)
    m["serve.protocol_ingest_ms"] = ingest_p50 - m["serve.node_ingest_us"] / 1e3
    m["serve.protocol_count_ms"] = count_p50 - m["serve.cut_ms"] - m["serve.count_ms"]
    m["serve.ingest_p50_ms"] = ingest_p50
    m["serve.ingest_p99_ms"] = percentile(stats["ingest_ms"], 99)
    m["serve.count_p90_ms"] = percentile(stats["count_ms"], 90)
    m["serve.tcp_ingest_ms"] = statistics.median(stats["tcp_ms"])
    m["serve.ingest_samples"] = len(stats["ingest_ms"])
    m["serve.count_samples"] = len(stats["count_ms"])
    m["serve.tcp_samples"] = len(stats["tcp_ms"])
    m["gen.lag_p99_ms"] = percentile(stats["lag_ms"], 99)
    m["gen.lag_max_ms"] = max(stats["lag_ms"])
    m["trace.span_cover"] = report["covered_ns"] / report["wall_ns"]
    m["proc.minor_faults"] = stats["usage"].ru_minflt
    return m


# ---------------------------------------------------------------- run


def run(workload, seed, seconds, trace, spec, toy=False):
    """One benchmark run; returns the result object."""
    sgs, pb = build()
    prov = provenance()
    log("provenance " + json.dumps(prov))
    work = ROOT / ".bench_run" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "provenance.json").write_text(json.dumps(prov, indent=1) + "\n")
    helper(pb, "gen", workload, seed, work, toy)
    plan = json.loads((work / "plan.json").read_text())
    tally = Tally()
    if plan["kind"] == "serve":
        stats = serve_e2e(sgs, plan, work, seconds, tally, TOY_LOAD if toy else FULL_LOAD)
        values = serve_traced(pb, stats, work, seed, tally, toy) if trace else serve_metrics(stats)
    elif trace:
        values = batch_traced(sgs, pb, plan, work, workload, seed, seconds, tally, toy)
    else:
        values = batch_e2e(sgs, plan, work, seconds, tally)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in group}
    return {"correct": tally.failed == 0 and not tally.invalid,
            "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def smoke(spec):
    """Every workload on toy inputs, both modes: all checks, the schema,
    and the checker's own tests. Prints no timings."""
    ok = True
    problems = check.validate_benchmark(spec)
    for p in problems:
        log(f"BENCHMARK.json: {p}")
    ok &= not problems
    tests = unittest.defaultTestLoader.loadTestsFromName("test_check")
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(tests)
    ok &= result.wasSuccessful()
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = run(workload, 1, 1, trace, spec, toy=True)
            problems = check.validate_result(res, spec, bool(trace))
            for p in problems:
                log(f"{workload} trace={trace}: {p}")
            good = res["correct"] and not problems
            ok &= good
            print(f"smoke {workload} trace={trace}: {'ok' if good else 'FAILED'} "
                  f"({res['attempted']} checked, {res['failed']} failed)", flush=True)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    try:
        if not spec_path.is_file():
            raise Fatal(f"{spec_path} is missing")
        spec = json.loads(spec_path.read_text())
        if args.smoke:
            sys.exit(0 if smoke(spec) else 1)
        if args.workload is None:
            ap.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, args.trace, spec)
    except Fatal as e:
        log(f"error: {e}")
        sys.exit(2)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
