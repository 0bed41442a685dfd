#!/usr/bin/env python3
"""Interleaved A/B comparison of micro_core benchmarks.

Runs two micro_core binaries -- a baseline and a candidate -- in alternating
rounds (A B A B ...) so slow drift in machine load hits both sides equally,
then prints a per-benchmark delta table of CPU time. Interleaving plus
median-of-rounds is what makes small (10-30%) wins trustworthy on a noisy
box; a single back-to-back run is not.

Typical use, comparing a git ref against the working tree:

    python3 tools/bench_compare.py --baseline-ref <ref>

which builds the ref's micro_core in a temporary git worktree (Release, same
generator as ./build) and the working tree's in ./build. Or point it at two
existing binaries:

    python3 tools/bench_compare.py --baseline-bin old/micro_core \
        --test-bin build/bench/micro_core

Exits non-zero if any benchmark regresses by more than --fail-above (off by
default), so it can gate CI.

A second mode diffs two bench_scale JSON reports (the fat-tree macro
benchmark) instead of running anything:

    python3 tools/bench_compare.py --scale old.json new.json

which prints per-transport deltas of wall time, events/sec and peak RSS,
and both files' `context` when they differ. A run is deterministic per
mode, so it exits non-zero if a row's events, delivered_pkts or completed
differ between the files (events are compared only between rows of equal
shard counts: a sharded run fires other events by design).

A third mode diffs two bench_coexist JSON reports (the mixed-transport
leaf-spine macro benchmark, DESIGN.md section 13):

    python3 tools/bench_compare.py --coexist bench/baselines/coexist_leafspine.json new.json

which prints per-mode (amrt_solo / dctcp_solo / mixed) deltas of average and
p99 FCT, mean downlink utilization and the foreground/background FCT split.
--fail-above here gates the worst p99-FCT ratio, not wall time: the coexist
benchmark exists to catch behavioural regressions (foreground tail blowing
up when background DCTCP flows join), not machine noise.

A fourth mode diffs two bench_fanout JSON reports (the front-end fan-out
macro benchmark, DESIGN.md section 14):

    python3 tools/bench_compare.py --fanout bench/baselines/fanout_leafspine.json new.json

which prints per-mode (amrt / dctcp / mixed) deltas of per-request
completion time (mean/p99/max) next to the member-flow FCT. --fail-above
gates the worst request-p99 ratio -- the request tail is the number the
fan-out scenario exists to protect.

A fifth mode runs interleaved pairs of the repository benchmark
(perfbench/) on two prebuilt perfbench binaries:

    python3 tools/bench_compare.py --perfbench websearch_k16 \
        --baseline-bin old/perfbench --test-bin .bench_build/perfbench/perfbench \
        --pairs 10 --seconds 8 --seed 3201

Pair i runs both binaries on the inputs perfbench/run.py --seed (SEED + i)
would use, one process each for --seconds, and alternates which side goes
first. For every end-to-end metric in BENCHMARK.json it prints each side's
median and quartiles over the pairs (one value per process: the median of
its timed runs), how many pairs the candidate won or tied, and the
baseline's interquartile range. It prints that table in every case, then
exits non-zero if any input's flow-record digest differs between or within
the sides, or any run reports an error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(cmd, **kw):
    kw.setdefault("check", True)
    return subprocess.run(cmd, **kw)


def build_ref(ref, jobs):
    """Builds micro_core at `ref` in a throwaway worktree; returns binary path."""
    wt = tempfile.mkdtemp(prefix="bench_baseline_")
    run(["git", "-C", REPO, "worktree", "add", "--detach", wt, ref],
        stdout=subprocess.DEVNULL)
    build = os.path.join(wt, "build")
    run(["cmake", "-B", build, "-S", wt, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=subprocess.DEVNULL)
    run(["cmake", "--build", build, "--target", "micro_core", "-j", str(jobs)],
        stdout=subprocess.DEVNULL)
    return os.path.join(build, "bench", "micro_core"), wt


def cleanup_worktree(wt):
    run(["git", "-C", REPO, "worktree", "remove", "--force", wt],
        stdout=subprocess.DEVNULL, check=False)
    shutil.rmtree(wt, ignore_errors=True)


def run_bench(binary, bench_filter, min_time):
    out = subprocess.run(
        [binary,
         f"--benchmark_filter={bench_filter}",
         f"--benchmark_min_time={min_time}",
         "--benchmark_format=json"],
        check=True, capture_output=True, text=True)
    doc = json.loads(out.stdout)
    res = {}
    for b in doc["benchmarks"]:
        if b.get("run_type", "iteration") != "iteration":
            continue  # skip _mean/_median aggregate rows
        res[b["name"]] = (b["cpu_time"], b["time_unit"])
    return res


def run_perfbench(binary, workload, seed, seconds):
    """One perfbench process on inputs seed, seed + 1, ... for `seconds`;
    returns its run records, the warm-up first."""
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        check=True, capture_output=True, text=True, timeout=seconds + 150)
    return [json.loads(line) for line in out.stdout.splitlines() if line.strip()]


def end_to_end_metrics():
    """BENCHMARK.json's end-to-end metrics as (name, unit, lower_is_better)."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"], m["better"] == "lower") for m in spec["end_to_end"]]


def quartiles(vals):
    """(q1, median, q3) of `vals`, inclusive method; one value is all three."""
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q = statistics.quantiles(vals, n=4, method="inclusive")
    return q[0], q[1], q[2]


def pair_stats(base_vals, test_vals, lower_is_better):
    """Per-metric summary of paired values: each side's quartiles, the pairs
    the candidate won or tied, the baseline's interquartile range and the
    (baseline, candidate) values themselves."""
    bq, tq = quartiles(base_vals), quartiles(test_vals)
    wins = sum(1 for b, t in zip(base_vals, test_vals)
               if (t < b if lower_is_better else t > b))
    ties = sum(1 for b, t in zip(base_vals, test_vals) if t == b)
    return {"base": bq, "test": tq, "wins": wins, "ties": ties, "pairs": len(base_vals),
            "base_iqr": bq[2] - bq[0], "values": list(zip(base_vals, test_vals))}


def summarize_perfbench(pairs, metrics):
    """Checks and summarizes interleaved perfbench pairs.

    `pairs` holds one (baseline_runs, test_runs) tuple of run records per
    pair; `metrics` is end_to_end_metrics()'s list. Prints one line per
    metric, then exits with a message if any input's digest differs or any
    run reports an error; otherwise returns {metric: pair_stats(...)}.
    """
    digests, problems = {}, []
    for base_runs, test_runs in pairs:
        for side, runs in (("baseline", base_runs), ("test", test_runs)):
            for r in runs:
                digests.setdefault(r["seed"], {}).setdefault(r["digest"], set()).add(side)
                problems += [f"{side} input {r['seed']}: {e}" for e in r.get("errors", [])]
    for seed in sorted(digests):
        if len(digests[seed]) > 1:
            seen = ", ".join(f"{d} ({'/'.join(sorted(sides))})"
                             for d, sides in sorted(digests[seed].items()))
            problems.append(f"input {seed}: digests differ: {seen}")

    def per_process(runs, name):
        return statistics.median(r[name] for r in runs if not r["warmup"])

    out = {}
    header = (f"{'metric':<12}  {'baseline median [q1, q3]':>30}  "
              f"{'candidate median [q1, q3]':>30}  {'delta':>7}  {'wins':>6}  {'ties':>4}  "
              f"{'base IQR':>9}")
    print(header)
    print("-" * len(header))
    for name, unit, lower in metrics:
        base_vals = [per_process(b, name) for b, _ in pairs]
        test_vals = [per_process(t, name) for _, t in pairs]
        st = pair_stats(base_vals, test_vals, lower)
        out[name] = st
        (b1, bm, b3), (t1, tm, t3) = st["base"], st["test"]
        delta = f"{(tm / bm - 1) * 100:+6.1f}%" if bm else f"{'n/a':>7}"
        print(f"{name:<12}  {bm:>9.4g} [{b1:.4g}, {b3:.4g}] {unit:<3}  "
              f"{tm:>9.4g} [{t1:.4g}, {t3:.4g}] {unit:<3}  {delta}  "
              f"{st['wins']:>2}/{st['pairs']:<3}  {st['ties']:>4}  {st['base_iqr']:>9.4g}")
    print("\nper pair, baseline -> candidate:")
    for name, _, _ in metrics:
        print(f"  {name}: " + ", ".join(f"{b:.4g}->{t:.4g}" for b, t in out[name]["values"]))
    checked = "see FAIL below" if problems else f"digests equal on all {len(digests)} inputs"
    print(f"\n({len(pairs)} interleaved pairs; wins count pairs where the candidate is "
          f"better; {checked})", flush=True)
    if problems:
        sys.exit("FAIL:\n  " + "\n  ".join(problems))
    return out


def compare_perfbench(args):
    metrics = end_to_end_metrics()
    test_bin = args.test_bin or os.path.join(REPO, ".bench_build", "perfbench", "perfbench")
    for binary in (args.baseline_bin, test_bin):
        if not binary or not os.access(binary, os.X_OK):
            sys.exit(f"error: {binary} is not an executable perfbench")
    pairs = []
    for i in range(args.pairs):
        seed = (args.seed + i) * 1000  # perfbench/run.py's input for --seed SEED + i
        order = ["baseline", "test"] if i % 2 == 0 else ["test", "baseline"]
        print(f"pair {i + 1}/{args.pairs}: input {seed}, {order[0]} first ...", flush=True)
        runs = {}
        for side in order:
            binary = args.baseline_bin if side == "baseline" else test_bin
            runs[side] = run_perfbench(binary, args.perfbench, seed, args.seconds)
        pairs.append((runs["baseline"], runs["test"]))
    print()
    summarize_perfbench(pairs, metrics)


def load_report(path):
    """bench JSON -> (its context dict, {name: row dict}), skipping
    aggregate rows."""
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        rows[b["name"]] = b
    return doc.get("context", {}), rows


# What a bench_scale row's run produced, not how fast: equal across builds
# of the same schedule unless the simulation itself changed.
SCALE_OUTCOMES = ("events", "delivered_pkts", "completed")


def moved_outcomes(b, t):
    """The outcomes two rows of one name both report and disagree on, as
    "key old -> new" strings; events only when their shard counts agree."""
    keys = [k for k in SCALE_OUTCOMES if k in b and k in t]
    if b.get("shards", 1) != t.get("shards", 1):
        keys = [k for k in keys if k != "events"]
    return [f"{k} {b[k]} -> {t[k]}" for k in keys if b[k] != t[k]]


def ratio_of(new, old):
    """new/old, or None when the baseline metric is zero or missing.

    A zero/absent baseline (e.g. an older bench build that didn't emit the
    metric, or a mode that completed no flows) has no meaningful ratio; it is
    rendered as n/a and never counts toward the --fail-above gate.
    """
    if not old or not new:
        return None
    return new / old


def fmt_ratio(ratio, width=6):
    return f"{ratio:>{width}.3f}" if ratio is not None else f"{'n/a':>{width}}"


def compare_scale(baseline_path, test_path, fail_above):
    base_ctx, base = load_report(baseline_path)
    test_ctx, test = load_report(test_path)
    names = sorted(set(base) & set(test))
    if not names:
        sys.exit("error: the two reports share no benchmark names")
    if base_ctx != test_ctx:
        print("contexts differ:")
        print(f"  baseline:  {json.dumps(base_ctx, sort_keys=True)}")
        print(f"  candidate: {json.dumps(test_ctx, sort_keys=True)}")
    gone = sorted(set(base) - set(test))
    if gone:
        print(f"(benchmarks present only in the baseline: {', '.join(gone)})")

    wname = max(len(n) for n in names)
    header = (f"{'benchmark':<{wname}}  {'time old':>10}  {'time new':>10}  {'ratio':>6}  "
              f"{'Mev/s old':>9}  {'Mev/s new':>9}  {'rss old':>8}  {'rss new':>8}")
    print(header)
    print("-" * len(header))
    worst = 0.0
    moved = []
    for name in names:
        b, t = base[name], test[name]
        ratio = ratio_of(t.get("real_time", 0), b.get("real_time", 0))
        if ratio is not None:
            worst = max(worst, ratio)
        moved += [f"{name}: {m}" for m in moved_outcomes(b, t)]
        print(f"{name:<{wname}}  {b.get('real_time', 0):>8.1f}ms  "
              f"{t.get('real_time', 0):>8.1f}ms  "
              f"{fmt_ratio(ratio)}  "
              f"{b.get('events_per_second', 0) / 1e6:>9.2f}  "
              f"{t.get('events_per_second', 0) / 1e6:>9.2f}  "
              f"{b.get('peak_rss_mb', 0):>6.1f}MB  {t.get('peak_rss_mb', 0):>6.1f}MB")
    print("\n(wall time per run; ratio < 1 means the candidate is faster)")
    for name in sorted(set(test) - set(base)):
        t = test[name]
        print(f"new: {name}  {t.get('real_time', 0):.1f}ms  "
              f"{t.get('events_per_second', 0) / 1e6:.2f}Mev/s")
    failures = [f"outcome moved: {m}" for m in moved]
    if fail_above is not None and worst > fail_above:
        failures.append(f"worst ratio {worst:.3f} exceeds --fail-above {fail_above}")
    if failures:
        sys.exit("FAIL:\n  " + "\n  ".join(failures))


def compare_coexist(baseline_path, test_path, fail_above):
    _, base = load_report(baseline_path)
    _, test = load_report(test_path)
    names = sorted(set(base) & set(test))
    if not names:
        sys.exit("error: the two reports share no benchmark names")
    gone = sorted(set(base) - set(test))
    if gone:
        print(f"(modes present only in the baseline: {', '.join(gone)})")

    wname = max(len(n) for n in names)
    header = (f"{'mode':<{wname}}  {'afct old':>10}  {'afct new':>10}  "
              f"{'p99 old':>10}  {'p99 new':>10}  {'ratio':>6}  "
              f"{'util old':>8}  {'util new':>8}")
    print(header)
    print("-" * len(header))
    worst = 0.0
    for name in names:
        b, t = base[name], test[name]
        ratio = ratio_of(t.get("p99_us", 0), b.get("p99_us", 0))
        if ratio is not None:
            worst = max(worst, ratio)
        print(f"{name:<{wname}}  {b.get('afct_us', 0):>8.1f}us  {t.get('afct_us', 0):>8.1f}us  "
              f"{b.get('p99_us', 0):>8.1f}us  {t.get('p99_us', 0):>8.1f}us  {fmt_ratio(ratio)}  "
              f"{b.get('mean_utilization', 0) * 100:>7.1f}%  "
              f"{t.get('mean_utilization', 0) * 100:>7.1f}%")
        for pop in ("foreground", "background"):
            bs, ts = b.get(pop, {}), t.get(pop, {})
            if bs.get("completed", 0) == 0 and ts.get("completed", 0) == 0:
                continue
            print(f"{'  ' + pop:<{wname}}  {bs.get('afct_us', 0):>8.1f}us  "
                  f"{ts.get('afct_us', 0):>8.1f}us  {bs.get('p99_us', 0):>8.1f}us  "
                  f"{ts.get('p99_us', 0):>8.1f}us  {'':>6}  "
                  f"{bs.get('completed', 0):>7}f  {ts.get('completed', 0):>7}f")
    print("\n(simulated FCT; ratio is p99 new/old, < 1 means the candidate improved)")
    for name in sorted(set(test) - set(base)):
        t = test[name]
        print(f"new: {name}  afct {t.get('afct_us', 0):.1f}us  p99 {t.get('p99_us', 0):.1f}us")
    if fail_above is not None and worst > fail_above:
        sys.exit(f"FAIL: worst p99 ratio {worst:.3f} exceeds --fail-above {fail_above}")


def compare_fanout(baseline_path, test_path, fail_above):
    _, base = load_report(baseline_path)
    _, test = load_report(test_path)
    names = sorted(set(base) & set(test))
    if not names:
        sys.exit("error: the two reports share no benchmark names")
    gone = sorted(set(base) - set(test))
    if gone:
        print(f"(modes present only in the baseline: {', '.join(gone)})")

    wname = max(len(n) for n in names)
    header = (f"{'mode':<{wname}}  {'req p99 old':>11}  {'req p99 new':>11}  {'ratio':>6}  "
              f"{'req mean new':>12}  {'req max new':>11}  {'flow p99 new':>12}")
    print(header)
    print("-" * len(header))
    worst = 0.0
    for name in names:
        b, t = base[name], test[name]
        old_p99 = b.get("request_p99_us", 0)
        new_p99 = t.get("request_p99_us", 0)
        ratio = ratio_of(new_p99, old_p99)
        if ratio is not None:
            worst = max(worst, ratio)
        print(f"{name:<{wname}}  {old_p99:>9.1f}us  {new_p99:>9.1f}us  {fmt_ratio(ratio)}  "
              f"{t.get('request_mean_us', 0):>10.1f}us  {t.get('request_max_us', 0):>9.1f}us  "
              f"{t.get('p99_us', 0):>10.1f}us")
        if (b.get("requests_complete", 0) != b.get("requests", 0)
                or t.get("requests_complete", 0) != t.get("requests", 0)):
            print(f"{'  (incomplete)':<{wname}}  "
                  f"{b.get('requests_complete', 0)}/{b.get('requests', 0)} old, "
                  f"{t.get('requests_complete', 0)}/{t.get('requests', 0)} new")
    print("\n(per-request completion time: first member start -> last member finish;"
          "\n ratio is request p99 new/old, < 1 means the candidate improved)")
    for name in sorted(set(test) - set(base)):
        t = test[name]
        print(f"new: {name}  req p99 {t.get('request_p99_us', 0):.1f}us  "
              f"flow p99 {t.get('p99_us', 0):.1f}us")
    if fail_above is not None and worst > fail_above:
        sys.exit(f"FAIL: worst request-p99 ratio {worst:.3f} exceeds --fail-above {fail_above}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--baseline-ref", help="git ref to build as the baseline")
    src.add_argument("--baseline-bin",
                     help="path to a prebuilt baseline micro_core (perfbench with --perfbench)")
    src.add_argument("--scale", nargs=2, metavar=("BASELINE_JSON", "TEST_JSON"),
                     help="diff two bench_scale JSON reports instead of running micro_core")
    src.add_argument("--coexist", nargs=2, metavar=("BASELINE_JSON", "TEST_JSON"),
                     help="diff two bench_coexist JSON reports (FCT + utilization per mode)")
    src.add_argument("--fanout", nargs=2, metavar=("BASELINE_JSON", "TEST_JSON"),
                     help="diff two bench_fanout JSON reports (per-request completion per mode)")
    ap.add_argument("--perfbench", metavar="WORKLOAD",
                    help="run interleaved perfbench pairs of WORKLOAD on --baseline-bin and "
                         "--test-bin instead of micro_core")
    ap.add_argument("--test-bin", default=None,
                    help="candidate binary (default: build/bench/micro_core, or "
                         ".bench_build/perfbench/perfbench with --perfbench)")
    ap.add_argument("--pairs", type=int, default=10,
                    help="--perfbench: interleaved pairs (default 10)")
    ap.add_argument("--seconds", type=int, default=8,
                    help="--perfbench: seconds per perfbench process (default 8)")
    ap.add_argument("--seed", type=int, default=1,
                    help="--perfbench: run.py --seed of the first pair (default 1)")
    ap.add_argument("--filter", default=".", help="benchmark name regex")
    ap.add_argument("--rounds", type=int, default=7,
                    help="interleaved A/B rounds (default 7; median is reported)")
    ap.add_argument("--min-time", default="0.2",
                    help="per-benchmark --benchmark_min_time seconds (default 0.2)")
    ap.add_argument("--fail-above", type=float, default=None,
                    help="exit 1 if any benchmark's cpu-time ratio (new/old) exceeds this")
    ap.add_argument("-j", "--jobs", type=int, default=os.cpu_count() or 4)
    args = ap.parse_args()

    if args.perfbench:
        if not args.baseline_bin:
            ap.error("--perfbench needs --baseline-bin")
        if args.pairs < 1 or args.seconds < 1:
            ap.error("--pairs and --seconds must be at least 1")
        compare_perfbench(args)
        return
    if args.test_bin is None:
        args.test_bin = os.path.join(REPO, "build", "bench", "micro_core")
    if args.scale:
        compare_scale(args.scale[0], args.scale[1], args.fail_above)
        return
    if args.coexist:
        compare_coexist(args.coexist[0], args.coexist[1], args.fail_above)
        return
    if args.fanout:
        compare_fanout(args.fanout[0], args.fanout[1], args.fail_above)
        return

    worktree = None
    try:
        if args.baseline_ref:
            print(f"building baseline micro_core at {args.baseline_ref} ...", flush=True)
            baseline_bin, worktree = build_ref(args.baseline_ref, args.jobs)
        else:
            baseline_bin = args.baseline_bin

        for binary in (baseline_bin, args.test_bin):
            if not os.access(binary, os.X_OK):
                sys.exit(f"error: {binary} is not an executable")

        base_samples, test_samples = {}, {}
        units = {}
        for r in range(args.rounds):
            print(f"round {r + 1}/{args.rounds} ...", flush=True)
            for binary, sink in ((baseline_bin, base_samples), (args.test_bin, test_samples)):
                for name, (cpu, unit) in run_bench(binary, args.filter, args.min_time).items():
                    sink.setdefault(name, []).append(cpu)
                    units[name] = unit

        names = sorted(set(base_samples) & set(test_samples))
        new_only = sorted(set(test_samples) - set(base_samples))
        gone = sorted(set(base_samples) - set(test_samples))
        if gone:
            print(f"(benchmarks present only in the baseline: {', '.join(gone)})")

        wname = max((len(n) for n in names), default=10)
        header = (f"{'benchmark':<{wname}}  {'baseline':>12}  {'candidate':>12}  "
                  f"{'ratio':>7}  {'speedup':>8}")
        print()
        print(header)
        print("-" * len(header))
        worst = 0.0
        for name in names:
            old = statistics.median(base_samples[name])
            new = statistics.median(test_samples[name])
            ratio = new / old if old else float("inf")
            worst = max(worst, ratio)
            unit = units[name]
            print(f"{name:<{wname}}  {old:>10.3f}{unit:>2}  {new:>10.3f}{unit:>2}  "
                  f"{ratio:>7.3f}  {1 / ratio:>7.2f}x")
        print(f"\n(cpu time, median of {args.rounds} interleaved rounds; "
              f"ratio < 1 means the candidate is faster)")

        if new_only:
            print("\nnew benchmarks (no baseline counterpart):")
            for name in new_only:
                new = statistics.median(test_samples[name])
                print(f"  {name:<{wname}}  {new:>10.3f}{units[name]:>2}")

        if args.fail_above is not None and worst > args.fail_above:
            sys.exit(f"FAIL: worst ratio {worst:.3f} exceeds --fail-above {args.fail_above}")
    finally:
        if worktree:
            cleanup_worktree(worktree)


if __name__ == "__main__":
    main()
