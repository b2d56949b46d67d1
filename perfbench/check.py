"""Answer checks and output-schema validation for perfbench/run.py.

Every answer the benchmark gets back is checked against an exact count
computed when the inputs were generated. The FGP estimator's hits are
binomial: each of `trials` independent trials hits with probability
p = #H / (2m)^rho. An answer fails when its hits lie more than `Z` binomial
standard deviations from trials * p.

Run `python3 perfbench/test_check.py` for the checker's own tests.
"""

import math
import re

Z = 5.0

# `#triangle ≈ 841790.2   (hits 18823/2000000, rho=3/2, ...) bits=4129b07c4d36e97d`
# `#K4 ≈ 9000000.0   (hits 135/600000, seed 5) bits=41612a8800000000`
COUNT_LINE = re.compile(r"^#(\S+) ≈ \S+\s+\(hits (\d+)/(\d+)[^)]*\).* bits=([0-9a-f]{16})$")
# `OK #triangle ≈ 41234.5 (hits 140/20000, seed 7) prefix=20000 bits=...`
COUNT_REPLY = re.compile(
    r"^OK #(\S+) ≈ \S+ \(hits (\d+)/(\d+), seed \d+\) prefix=(\d+) bits=([0-9a-f]{16})$"
)


def hits_ok(hits, trials, exact, m, rho, z=Z):
    """True when `hits` lies within `z` binomial standard deviations of
    the expected hits `trials * exact / (2m)^rho`."""
    if trials <= 0 or hits < 0 or hits > trials:
        return False
    if m <= 0:
        return hits == 0
    p = exact / (2.0 * m) ** rho
    if not 0.0 <= p <= 1.0:
        return False
    mean = trials * p
    sd = math.sqrt(trials * p * (1.0 - p))
    return abs(hits - mean) <= z * sd


def parse_count_output(text):
    """The answers an `sgs count --bits` run printed, in order, as
    (pattern, hits, trials, bits) tuples."""
    out = []
    for line in text.splitlines():
        match = COUNT_LINE.match(line.strip())
        if match:
            name, hits, trials, bits = match.groups()
            out.append((name, int(hits), int(trials), bits))
    return out


def parse_count_reply(line):
    """(pattern, hits, trials, prefix, bits) of a COUNT reply, or None."""
    match = COUNT_REPLY.match(line.strip())
    if not match:
        return None
    name, hits, trials, prefix, bits = match.groups()
    return name, int(hits), int(trials), int(prefix), bits


def check_batch_answers(answers, expected_patterns, checks, statistical=True):
    """Count the failed answers of one `sgs count` run.

    `answers` are parsed output lines, `expected_patterns` the patterns the
    run was asked for (in order), `checks` the plan's exact counts by
    pattern. A missing or extra answer counts as failed. Set-up runs have
    one trial each, where a binomial bound says nothing, so they pass
    `statistical=False` and are checked for shape only."""
    failed = abs(len(answers) - len(expected_patterns))
    for (name, hits, trials, _bits), want in zip(answers, expected_patterns):
        c = checks[want]
        if name != want:
            failed += 1
        elif statistical and not hits_ok(hits, trials, c["exact"], c["m"], c["rho"]):
            failed += 1
        elif not statistical and not 0 <= hits <= trials:
            failed += 1
    return failed


def check_ingest_replies(replies, first_position):
    """Failed INGEST replies: each must be `OK <position>`, positions
    consecutive from `first_position`."""
    failed = 0
    for i, reply in enumerate(replies):
        if reply.strip() != f"OK {first_position + i}":
            failed += 1
    return failed


def check_count_reply(reply, prefix_triangles, rho, trials):
    """Whether one COUNT reply is right: well formed, asked-for trials,
    and hits within the bound for the exact triangle count of the prefix
    it names. Insert-only, so the prefix length is the edge count."""
    parsed = parse_count_reply(reply)
    if parsed is None:
        return False
    _name, hits, got_trials, prefix, _bits = parsed
    if got_trials != trials or prefix >= len(prefix_triangles):
        return False
    return hits_ok(hits, trials, prefix_triangles[prefix], prefix, rho)


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def validate_benchmark(spec):
    """Problems with BENCHMARK.json's shape (empty when it is valid)."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"keys {sorted(spec)} != {sorted(keys)}")
        return problems
    names = set()
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or not NAME.match(w["name"]) or len(w["why"]) > 200:
            problems.append(f"bad workload {w}")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("need 2 to 8 workloads")
    for group, bounded in (("end_to_end", True), ("per_layer", False)):
        for m in spec[group]:
            want = {"name", "unit", "better"} | ({"bound"} if bounded else set())
            if set(m) != want:
                problems.append(f"{group} metric {m} has keys {sorted(m)}")
                continue
            if not NAME.match(m["name"]) or m["name"] in names:
                problems.append(f"bad or repeated name {m['name']}")
            names.add(m["name"])
            if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
                problems.append(f"bad unit/better in {m}")
            if bounded and not 0 < m["bound"] <= 0.25:
                problems.append(f"bound of {m['name']} outside (0, 0.25]")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"]):
        problems.append("no setup_s metric")
    if not 1 <= spec["run_seconds"] <= 60 or int(spec["run_seconds"]) != spec["run_seconds"]:
        problems.append("run_seconds must be a whole number in 1..60")
    return problems


def validate_result(result, spec, trace):
    """Problems with one run's result line against BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if result["attempted"] < 1:
        problems.append("attempted < 1")
    group = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in group}
    if set(result["metrics"]) != set(want):
        problems.append(f"metrics {sorted(result['metrics'])} != {sorted(want)}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or m.get("unit") != want.get(name):
            problems.append(f"metric {name} is {m}")
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"metric {name} value {m['value']} is not a finite number")
        elif not trace and m["value"] <= 0:
            problems.append(f"end-to-end metric {name} is {m['value']}, must be > 0")
    return problems
