#!/usr/bin/env python3
"""End-to-end benchmark of the arch21 cluster/region simulator.

Builds bench/e2e into build-e2e/ at the repository root, then runs the
workloads named in BENCHMARK.json.  Every round of every workload is its
own arch21_e2e process, and rounds are interleaved across workloads, so
a slow phase of a shared host lands on all of them instead of one.
Trial and set-up times are reported at a fixed reference speed, each
scaled by a reference pass timed next to it (see reference.hpp).

  python3 bench/e2e/run.py              # one run_seconds run per workload
  python3 bench/e2e/run.py --smoke      # 3 seeds x 1 round, same checks
  python3 bench/e2e/run.py --runs 10    # ten sets (input for `compare`)
  python3 bench/e2e/run.py --layers     # traced per-layer run
  python3 bench/e2e/run.py compare BASE.json NEW.json
  python3 bench/e2e/run.py repeat       # two sets back to back, must agree
  python3 bench/e2e/run.py bless        # rewrite golden.json
  python3 bench/e2e/run.py --workload W --seed S --seconds T --trace 0|1

The last form runs one workload for about T seconds and prints one JSON
result as its last line: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1.  Exit status is 1 on any correctness failure and
2 when the benchmark cannot build or run.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "arch21_e2e"
GOLDEN = HERE / "golden.json"

GOLDEN_SEED = 2014
GOLDEN_SETUP = "1"   # the set-up trial: trial 0 of seed 2014, every process
GOLDEN_TRIALS = "3"  # the seed-2014 probe every --checks round recomputes
# 50 seeds, so trial_s_p80 has ten samples beyond it.
DEFAULT_SEEDS = 50
LAYERS_SEEDS = 10
SMOKE_SEEDS = 3
# The fewest rounds a run makes; a run's length goes into more rounds.
ROUNDS = 3
# Set-ups per run: every round sets up once, and set-up-only processes
# (--seeds 0) make up the rest, so setup_s is a median of this many.  One
# set-up is one cold trial, as noisy as the host, so it takes many.
SETUP_SAMPLES = 20
# A run starts no trial round past this multiple of its seconds once it
# has ROUNDS rounds, so a slow host cannot stretch it without limit.
DEADLINE_FACTOR = 1.25
PROCESS_TIMEOUT_S = 170
# Seconds one reference pass (reference.hpp) takes on the reference host
# when it is quiet.  Every reported trial and set-up time is host time
# scaled to this speed: x REF_PASS_S / the pass timed next to it.
REF_PASS_S = 0.004

# Host seconds of one trial per workload on the reference host (4 cores,
# GCC 12, RelWithDebInfo), and what a layers round costs per seed in
# trials.  They only size runs, and are constants so the parent and the
# change of a comparison simulate exactly the same trials.
TRIAL_COST_S = {
    "fanout_plain": 0.052,
    "overload_protected": 0.051,
    "pdes_cluster": 0.049,
    "multiregion_failover": 0.072,
}
LAYERS_TRIALS_PER_SEED = 7


class BenchError(Exception):
    """The benchmark could not build or run (exit status 2)."""


def load_bench():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def workload_names(bench):
    return [w["name"] for w in bench["workloads"]]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build


def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError(f"no arch21 sources at {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "arch21_e2e",
                  "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd) + "\n" +
                             (p.stdout + p.stderr)[-4000:])


def run_binary(args):
    cmd = [str(BINARY)] + args
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    if p.returncode != 0:
        raise BenchError(" ".join(cmd) + f" exited {p.returncode}\n" +
                         p.stderr[-2000:])
    return json.loads(p.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------- e2e runs


def rotated(items, k):
    k %= len(items)
    return items[k:] + items[:k]


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def load_golden():
    if not GOLDEN.exists():
        return {}
    with open(GOLDEN) as f:
        return json.load(f)["workloads"]


def summarize_e2e(w, rounds, setups, seed, golden):
    """Fold one workload's rounds (and set-up-only runs) into its
    end-to-end metrics.

    Per seed the median scaled time over rounds is kept (the host is
    noisy); a trial counts as failed in every round when it threw, broke
    an invariant, or differed between rounds.
    """
    n = rounds[0]["seeds"]
    problems = []
    bad = set()
    for r in rounds:
        for f in r["failed"]:
            bad.add(f["trial"])
            problems.append(f"{w} round {r['round']} trial {f['trial']}: "
                            f"{f['why']}")
    for i in range(n):
        if (len({r["digests"][i] for r in rounds}) > 1 or
                len({r["offered"][i] for r in rounds}) > 1):
            bad.add(i)
            problems.append(f"{w} trial {i}: result differs across rounds")
    attempted = n * len(rounds)
    failed = len(bad) * len(rounds)

    want = golden.get(w, {})
    for r in rounds + setups:
        attempted += 1
        if r["setup_digest"] != want.get(GOLDEN_SETUP):
            failed += 1
            problems.append(f"{w}: set-up trial digest {r['setup_digest']} "
                            f"!= golden {want.get(GOLDEN_SETUP)}")
    for r in rounds:
        checks = r.get("checks")
        if checks is None:
            continue
        attempted += int(GOLDEN_TRIALS)
        if checks["golden_digest"] != want.get(GOLDEN_TRIALS):
            failed += int(GOLDEN_TRIALS)
            problems.append(f"{w}: seed-{GOLDEN_SEED} digest "
                            f"{checks['golden_digest']} != golden "
                            f"{want.get(GOLDEN_TRIALS)}")
    if seed == GOLDEN_SEED and str(n) in want:
        for r in rounds:
            if r["aggregate_digest"] != want[str(n)]:
                failed = attempted
                problems.append(f"{w} round {r['round']}: aggregate digest "
                                f"{r['aggregate_digest']} != golden "
                                f"{want[str(n)]}")

    ok = [i for i in range(n) if i not in bad]
    if not ok:
        raise BenchError(f"{w}: every trial failed\n" + "\n".join(problems))
    # Host times at reference speed: each trial scaled by the reference
    # pass timed right before it, each set-up by its own passes.  What
    # the scaling leaves is about as often too fast as too slow, so each
    # seed takes the median over rounds.
    per_seed = [statistics.median(r["trial_s"][i] * REF_PASS_S / r["ref_s"][i]
                                  for r in rounds) for i in ok]
    offered = [rounds[0]["offered"][i] for i in ok]
    metrics = {
        "sim_queries_per_s": sum(offered) / sum(per_seed),
        "trial_s_p50": statistics.median(per_seed),
        "trial_s_p80": percentile(per_seed, 0.8),
        "setup_s": statistics.median(r["setup_s"] * REF_PASS_S / r["setup_ref_s"]
                                     for r in rounds + setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                         for r in rounds + setups),
        "failed_trial_frac": failed / attempted,
        "host_slowdown": statistics.median(
            s / REF_PASS_S for r in rounds for s in r["ref_s"]),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems}


def rounds_for(w, seconds):
    """Rounds of DEFAULT_SEEDS trials, each after a reference pass, that
    fill `seconds` on the reference host.  Each seed keeps its median
    round, so more rounds spread over the run shed more host noise."""
    per_trial = TRIAL_COST_S[w] + REF_PASS_S
    return max(ROUNDS, round(seconds / (DEFAULT_SEEDS * per_trial)))


def run_set(workloads, seed, seeds, rounds, golden, setup_samples,
            seconds=None):
    """One set: rounds[w] rounds of every workload w, interleaved, with
    set-up-only runs spread between them up to `setup_samples`
    set-ups per workload.  Given `seconds`, no trial round past
    DEADLINE_FACTOR x seconds starts once ROUNDS are done."""
    per = {w: [] for w in workloads}
    setups = {w: [] for w in workloads}
    slots = max(max(rounds.values()), setup_samples)
    t_end = None if seconds is None else (
        time.monotonic() + DEADLINE_FACTOR * seconds)
    for k in range(slots):
        for w in rotated(workloads, k):
            # Spread each workload's trial rounds evenly over the slots.
            trial_round = (k + 1) * rounds[w] // slots > k * rounds[w] // slots
            if (trial_round and len(per[w]) >= ROUNDS and t_end is not None
                    and time.monotonic() > t_end):
                continue
            n = seeds[w] if trial_round else 0
            args = ["--workload", w, "--seed", str(seed), "--seeds", str(n),
                    "--round", str(len(per[w]))]
            if trial_round and not per[w]:
                args.append("--checks")
            (per[w] if trial_round else setups[w]).append(run_binary(args))
    return {w: summarize_e2e(w, per[w], setups[w], seed, golden)
            for w in workloads}


# ---------------------------------------------------------- layers runs


def self_times(events):
    """Self time (duration minus directly nested children) per span name,
    in seconds, for the 'X' spans of one single-track trace."""
    spans = sorted((e for e in events if e.get("ph") == "X"),
                   key=lambda e: (e["ts"], -e["dur"]))
    totals = {}
    stack = []  # [end_us, name, children_us, dur_us]

    def close(entry):
        _, name, child, dur = entry
        totals[name] = totals.get(name, 0.0) + (dur - child) * 1e-6
    for e in spans:
        while stack and stack[-1][0] <= e["ts"] + 0.002:
            close(stack.pop())
        if stack:
            stack[-1][2] += e["dur"]
        stack.append([e["ts"] + e["dur"], e["name"], 0.0, e["dur"]])
    while stack:
        close(stack.pop())
    return totals


def summarize_layers(w, rounds, names):
    problems = []
    bad = set()
    for r in rounds:
        for f in r["failed"]:
            bad.add(f["trial"])
            problems.append(f"{w} round {r['round']} trial {f['trial']}: "
                            f"{f['why']}")
    n = rounds[0]["seeds"]
    for i in range(n):
        if len({r["digests"][i] for r in rounds}) > 1:
            bad.add(i)
            problems.append(f"{w} trial {i}: result differs across rounds")
    for r in rounds:
        unknown = set(r["layers"]) - set(names)
        if unknown:
            raise BenchError(f"{w}: metrics missing from BENCHMARK.json: "
                             f"{sorted(unknown)}")
    # The binary leaves out the metrics of layers the workload lacks.
    metrics = {m: statistics.median(r["layers"].get(m, 0.0) for r in rounds)
               for m in names}
    return {"metrics": metrics, "attempted": n * len(rounds),
            "failed": len(bad) * len(rounds), "problems": problems}


def run_layers(workloads, seed, seeds, rounds, names):
    trace_dir = BUILD / "layers"
    trace_dir.mkdir(parents=True, exist_ok=True)
    per = {w: [] for w in workloads}
    traces = []  # (workload, round, path)
    for k in range(rounds):
        for w in rotated(workloads, k):
            path = trace_dir / f"{w}.r{k}.json"
            per[w].append(run_binary([
                "--workload", w, "--seed", str(seed), "--seeds", str(seeds[w]),
                "--round", str(k), "--layers", "--trace-out", str(path)]))
            traces.append((w, k, path))

    out = {w: summarize_layers(w, per[w], names) for w in workloads}
    merged = []
    for pid, (w, k, path) in enumerate(traces, start=1):
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        st = self_times(events)
        acc = out[w].setdefault("self_time_s", {})
        for name, s in st.items():
            acc[name] = acc.get(name, 0.0) + s
        for e in events:
            if e.get("ph") == "M" and e["name"] == "process_name":
                e["args"] = {"name": f"{w} round {k}"}
            e["pid"] = pid
            merged.append(e)
    with open(BUILD / "layers_trace.json", "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": merged}, f)
    return out


# ------------------------------------------------------------ provenance


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return "n/a"


def git_sha():
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True).stdout.strip()
            dirty = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--",
                 "src", "bench/e2e"], capture_output=True, text=True).stdout
            if sha:
                return sha + ("-dirty" if dirty.strip() else "")
        except OSError:
            pass
    # No usable git checkout: identify the sources by content instead.
    h = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(HERE.glob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "tree-sha1:" + h.hexdigest()


def cmake_cache(key):
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return ""


def compiler():
    cxx = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        p = subprocess.run([cxx, "--version"], capture_output=True, text=True)
        return p.stdout.splitlines()[0]
    except (OSError, IndexError):
        return cxx or "n/a"


def perf_status():
    """'available' when perf_event_open can count this process's
    instructions, else 'n/a' (the benchmark never needs it)."""
    nr = {"x86_64": 298, "aarch64": 241}.get(platform.machine())
    if nr is None:
        return "n/a"
    attr = ctypes.create_string_buffer(128)
    # type=PERF_TYPE_HARDWARE, size, config=PERF_COUNT_HW_INSTRUCTIONS;
    # flags: disabled | exclude_kernel | exclude_hv.
    struct.pack_into("<IIQ", attr, 0, 0, 128, 1)
    struct.pack_into("<Q", attr, 40, 1 | (1 << 5) | (1 << 6))
    libc = ctypes.CDLL(None, use_errno=True)
    fd = libc.syscall(nr, attr, 0, -1, -1, 0)
    if fd < 0:
        return "n/a"
    os.close(fd)
    return "available"


def provenance(seed, seeds, rounds, load_before):
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "compiler": compiler(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        "seed": seed,
        "seeds": seeds,
        "rounds": rounds,
        "perf": perf_status(),
    }


# ----------------------------------------------------------- reporting


def e2e_columns(bench):
    cols = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    return cols + [("failed_trial_frac", "ratio"), ("host_slowdown", "ratio")]


def print_table(title, rows, columns):
    """rows: {workload: {metric: value}}."""
    width = max(len(w) for w in rows) + 2
    print(title)
    print(" " * width + "".join(f"{n:>20}" for n, _ in columns))
    print(" " * width + "".join(f"{u:>20}" for _, u in columns))
    for w, metrics in rows.items():
        print(f"{w:<{width}}" + "".join(f"{metrics[n]:>20.6g}"
                                        for n, _ in columns))


def median_runs(runs, workloads, names):
    return {w: {m: statistics.median(run[w][m] for run in runs)
                for m in names} for w in workloads}


# ------------------------------------------------------------- compare


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def label(base, new, better, bound):
    """improved / unchanged / worse / unresolved for one (metric, workload).

    Improved: the change wins >= 9 of 10 pairs and the medians differ by
    more than the parent's quartile spread.  Where either side's spread
    is wider than the bound, 'unresolved' unless every new run beats
    every parent run.  Worse: the new median is worse by more than the
    bound.
    """
    sign = 1 if better == "higher" else -1
    mb, mn = statistics.median(base), statistics.median(new)
    gain = sign * (mn - mb)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    b1, b3 = quartiles(base)
    n1, n3 = quartiles(new)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > b3 - b1:
        return "improved"
    spread = max(b3 - b1, n3 - n1) / abs(mb)
    all_better = (min(sign * n for n in new) > max(sign * b for b in base))
    if spread > bound and not all_better:
        return "unresolved"
    if -gain > bound * abs(mb):
        return "worse"
    return "unchanged"


def more_failures(base_runs, new_runs, workloads):
    """Workloads on which the change fails a larger share of its trials
    than the parent in some run (failed_trial_frac's bound is +0)."""
    def worst(runs, w):
        return max(r[w]["failed_trial_frac"] for r in runs)
    return [w for w in workloads if worst(new_runs, w) > worst(base_runs, w)]


def compare_runs(bench, base_runs, new_runs, void=()):
    """Label every (metric, workload) pair; pairs of a workload in `void`
    are 'unresolved' whatever their times, since a gain does not count
    where more operations fail."""
    rows = []
    for m in bench["end_to_end"]:
        for w in workload_names(bench):
            b = [r[w][m["name"]] for r in base_runs]
            n = [r[w][m["name"]] for r in new_runs]
            lab = ("unresolved" if w in void
                   else label(b, n, m["better"], m["bound"]))
            rows.append((m["name"], w, statistics.median(b),
                         statistics.median(n), lab))
    return rows


def print_compare(rows):
    print(f"{'metric':<20}{'workload':<24}{'base':>14}{'new':>14}"
          f"{'change':>10}  label")
    for metric, w, mb, mn, lab in rows:
        print(f"{metric:<20}{w:<24}{mb:>14.6g}{mn:>14.6g}"
              f"{(mn - mb) / mb:>+10.2%}  {lab}")


def cmd_compare(base_path, new_path):
    """Exit 1 when a pair is worse, when either record failed its
    correctness gate, or when the change fails more trials than the
    parent; the pairs of such a record or workload are unresolved."""
    bench = load_bench()
    workloads = workload_names(bench)
    records = {}
    for side, path in (("BASE", base_path), ("NEW", new_path)):
        with open(path) as f:
            records[side] = json.load(f)
    invalid = [side for side, rec in records.items() if not rec["correct"]]
    base, new = records["BASE"]["runs"], records["NEW"]["runs"]
    void = set(workloads) if invalid else set(
        more_failures(base, new, workloads))
    rows = compare_runs(bench, base, new, void)
    print_compare(rows)
    if invalid:
        for side in invalid:
            print(f"{side} failed its correctness gate: "
                  f"{len(records[side]['problems'])} problems")
    else:
        for w in sorted(void):
            print(f"NEW fails more trials than BASE on {w}")
    return 1 if void or any(r[4] == "worse" for r in rows) else 0


# ------------------------------------------------------------ commands


def e2e_sets(bench, seed, smoke, runs):
    """`runs` sets of every workload, each {workload: summary}, and the
    seeds and rounds per workload they ran."""
    golden = load_golden()
    workloads = workload_names(bench)
    if smoke:
        seeds, setup_samples = SMOKE_SEEDS, 1
        rounds = {w: 1 for w in workloads}
    else:
        seeds, setup_samples = DEFAULT_SEEDS, SETUP_SAMPLES
        rounds = {w: rounds_for(w, bench["run_seconds"]) for w in workloads}
    sets = []
    for i in range(runs):
        log(f"set {i + 1}/{runs}: {len(workloads)} workloads x {seeds} "
            f"seeds, rounds {rounds}")
        sets.append(run_set(workloads, seed, {w: seeds for w in workloads},
                            rounds, golden, setup_samples))
    return sets, seeds, rounds


def report_sets(bench, sets, settings, out_path):
    workloads = workload_names(bench)
    cols = e2e_columns(bench)
    runs = [{w: s[w]["metrics"] for w in workloads} for s in sets]
    summary = median_runs(runs, workloads, [n for n, _ in cols])
    problems = list(dict.fromkeys(
        p for s in sets for w in workloads for p in s[w]["problems"]))
    print_table(f"end-to-end (median of {len(runs)} set(s), host time, "
                "obs off)", summary, cols)
    units = dict(cols)
    record = {
        "provenance": settings,
        "runs": runs,
        "summary": {w: {m: {"value": v, "unit": units[m]}
                        for m, v in summary[w].items()} for w in workloads},
        "correct": not problems,
        "problems": problems,
    }
    with open(out_path, "w") as f:
        json.dump(record, f, indent=1)
    for p in problems:
        print("FAIL " + p)
    print(("correct: all digests, invariants and determinism checks pass"
           if not problems else f"correct: NO ({len(problems)} problems)"))
    print(f"wrote {out_path.relative_to(ROOT)}")
    return record


def cmd_run(args):
    bench = load_bench()
    build()
    load_before = loadavg()
    sets, seeds, rounds = e2e_sets(bench, args.seed, args.smoke, args.runs)
    settings = provenance(args.seed, seeds, rounds, load_before)
    record = report_sets(bench, sets, settings, BUILD / "bench.json")
    return 0 if record["correct"] else 1


def cmd_layers(args):
    bench = load_bench()
    build()
    load_before = loadavg()
    workloads = workload_names(bench)
    names = [m["name"] for m in bench["per_layer"]]
    seeds = LAYERS_SEEDS
    out = run_layers(workloads, args.seed, {w: seeds for w in workloads},
                     ROUNDS, names)
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = [p for w in workloads for p in out[w]["problems"]]
    print(f"per-layer metrics (median of {ROUNDS} rounds x {seeds} "
          "seeds; 0 = layer absent)")
    print(f"{'metric':<38}{'unit':<16}" + "".join(f"{w[:14]:>16}"
                                                  for w in workloads))
    for m in names:
        print(f"{m:<38}{units[m]:<16}" + "".join(
            f"{out[w]['metrics'][m]:>16.5g}" for w in workloads))
    print("\nledger: (a) kernel, (b) Resource, (c) client = 1 - a - b "
          "(share of trial host time)")
    for w in workloads:
        mt = out[w]["metrics"]
        if mt["des.events_per_query"] == 0:
            print(f"  {w:<24} n/a (no kernel counters published)")
            continue
        a, b = mt["des.kernel_share"], mt["des.resource_share"]
        ok = a + b <= 1
        if not ok:
            problems.append(f"{w}: ledger rows (a)+(b) = {a + b:.3f} > 1")
        print(f"  {w:<24} a={a:.3f} b={b:.3f} c={mt['cloud.client_share']:.3f}"
              f"{'' if ok else '  (a)+(b) > 1'}")
    print("\nself time by span (s, summed over rounds):")
    for w in workloads:
        top = sorted(out[w]["self_time_s"].items(), key=lambda kv: -kv[1])
        print(f"  {w}: " + ", ".join(f"{k} {v:.3f}" for k, v in top[:6]))
    record = {"provenance": provenance(args.seed, seeds, ROUNDS, load_before),
              "workloads": out, "correct": not problems,
              "problems": problems}
    with open(BUILD / "layers.json", "w") as f:
        json.dump(record, f, indent=1)
    for p in problems:
        print("FAIL " + p)
    print("wrote build-e2e/layers.json and build-e2e/layers_trace.json")
    return 0 if not problems else 1


def cmd_one_workload(args):
    """One workload for about --seconds; the last line is the result."""
    bench = load_bench()
    w = args.workload
    if w not in workload_names(bench):
        raise BenchError(f"unknown workload {w}")
    build()
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    if args.trace:
        per_seed = TRIAL_COST_S[w] * ROUNDS * LAYERS_TRIALS_PER_SEED
        seeds = max(3, round(seconds / per_seed))
        names = [m["name"] for m in bench["per_layer"]]
        s = run_layers([w], args.seed, {w: seeds}, ROUNDS, names)[w]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        s = run_set([w], args.seed, {w: DEFAULT_SEEDS},
                    {w: rounds_for(w, seconds)}, load_golden(),
                    SETUP_SAMPLES, seconds)[w]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for p in s["problems"]:
        log("FAIL " + p)
    result = {
        "correct": not s["problems"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {m: {"value": s["metrics"][m], "unit": u}
                    for m, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def cmd_repeat(args):
    """Two sets back to back; every (metric, workload) median must agree
    within the metric's bound."""
    bench = load_bench()
    build()
    load_before = loadavg()
    (set_a, seeds, rounds), (set_b, _, _) = (
        e2e_sets(bench, args.seed, False, args.runs) for _ in range(2))
    settings = provenance(args.seed, seeds, rounds, load_before)
    print("set A")
    rec_a = report_sets(bench, set_a, settings, BUILD / "repeat_a.json")
    print("\nset B")
    rec_b = report_sets(bench, set_b, settings, BUILD / "repeat_b.json")
    print("\nB vs A")
    rows = compare_runs(bench, rec_a["runs"], rec_b["runs"])
    print_compare(rows)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    disagree = [(m, w) for m, w, mb, mn, _ in rows
                if abs(mn - mb) > bounds[m] * abs(mb)]
    for m, w in disagree:
        print(f"DISAGREE {m} on {w}")
    print("repeat: " + ("sets agree within every bound" if not disagree
                        else f"{len(disagree)} pairs outside their bound"))
    ok = rec_a["correct"] and rec_b["correct"] and not disagree
    return 0 if ok else 1


def cmd_bless():
    """Record the seed-2014 digests of the current model as golden."""
    bench = load_bench()
    build()
    out = {}
    for w in workload_names(bench):
        r = run_binary(["--workload", w, "--seed", str(GOLDEN_SEED),
                        "--seeds", str(DEFAULT_SEEDS), "--checks"])
        if r["failed"]:
            raise BenchError(f"{w}: cannot bless a failing run: {r['failed']}")
        out[w] = {GOLDEN_SETUP: r["setup_digest"],
                  GOLDEN_TRIALS: r["checks"]["golden_digest"],
                  str(DEFAULT_SEEDS): r["aggregate_digest"]}
        log(f"{w}: {out[w]}")
    with open(GOLDEN, "w") as f:
        json.dump({"seed": GOLDEN_SEED, "workloads": out}, f, indent=1)
        f.write("\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            raise BenchError("usage: run.py compare BASE.json NEW.json")
        return cmd_compare(argv[1], argv[2])
    if argv and argv[0] == "bless":
        return cmd_bless()
    command = "run"
    if argv and argv[0] == "repeat":
        command, argv = "repeat", argv[1:]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--runs", type=int, default=1,
                    help="sets to run (repeat: per side)")
    ap.add_argument("--smoke", action="store_true",
                    help=f"{SMOKE_SEEDS} seeds x 1 round with the same checks")
    ap.add_argument("--layers", action="store_true",
                    help="traced per-layer run instead of end-to-end")
    ap.add_argument("--workload", help="run one workload for --seconds")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload:
        return cmd_one_workload(args)
    if args.runs < 1:
        raise BenchError("--runs must be >= 1")
    if command == "repeat":
        return cmd_repeat(args)
    if args.layers:
        return cmd_layers(args)
    return cmd_run(args)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log(f"run.py: {e}")
        sys.exit(2)
