#!/usr/bin/env python3
"""The repository benchmark: builds the simulator and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The C++ program (perfbench.cpp, built with
the CMake package in this directory) performs complete simulations one after
another in one process, after an untimed warm-up run; this script starts
it, checks every run's output and prints the metrics.

--trace 0 runs one process for S seconds. Every timed run gets its own input
seed derived from --seed; the warm-up repeats the first timed run's input.
The end-to-end metrics are medians over the timed runs. --trace 1 cycles through untraced and traced processes on the
first input until S seconds have passed and reports the per-layer metrics
(medians over the timed traced runs) plus the tracing overhead. For
websearch_k16 it also runs two companions on that input seed, untraced and
traced: the same schedule on shard threads for the shard.* metrics, and the
fan-out workload for the fanout.* metrics.

Every run must complete every flow and deliver every offered byte; runs of
one input, traced or not, must produce the same flow-record digest. A
violation is printed to stderr, the result carries "correct": false and the
exit code is 1. The last line of stdout is the JSON result; the lines above
it name the machine and show the digests and simulated outcomes. The full
record (every run, the heartbeat and span histograms of the last traced
run) is written under the build directory's results/ folder.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
BUILD = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
CHILD_TIMEOUT_S = 150
# Timed runs per process in --trace 1, after the warm-up.
TRACE_RUNS = 2
# Per-layer metrics a companion run reports instead of the workload itself:
# name prefix -> (companion, prefix of its layer keys). The shard layer runs
# only on shard threads, whose wall time follows the host's scheduling of
# every thread too closely to be gated end to end. The fan-out workload is
# too sensitive to the shared host's load to be gated (see README.md), but its
# per-flow paths (threshold ECN, DCTCP, the group book) run nowhere else.
COMPANIONS = {"websearch_k16": {"shard.": ("websearch_k16_sharded", "shard."),
                                "fanout.": ("fanout_mixed", "")}}
# End-to-end times, whose spread over the timed runs is printed too.
TIMES = ("cpu_s", "setup_s", "wall_s")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench; False if either step fails."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def input_seed(seed, j):
    return seed * 1000 + j


def run_child(workload, seed, traced, runs=1, seconds=0, trace_out=None):
    """One perfbench process: a warm-up run, then `runs` timed runs of input
    `seed`, or with `seconds` timed runs of fresh inputs seed, seed+1, ...
    until that long after the process started. Returns every run's record,
    the warm-up first."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds)] if seconds else ["--runs", str(runs)]
    if traced:
        cmd.append("--trace")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S + seconds)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return [json.loads(line) for line in proc.stdout.strip().splitlines()]


def machine_context():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], capture_output=True,
                              text=True, cwd=HERE)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    ctx = {"nproc": os.cpu_count(), "cpu": cpu, "commit": commit}
    ctx.update(json.loads(subprocess.run([BINARY, "--context"], capture_output=True, text=True,
                                         check=True).stdout))
    return ctx


def check(runs):
    """Output checks over every run; returns a list of violations."""
    errors = []
    digests = {}
    for r in runs:
        tag = f"{r['workload']} seed {r['seed']}{' traced' if r['traced'] else ''}"
        errors += [f"{tag}: {e}" for e in r["errors"]]
        digests.setdefault((r["workload"], r["seed"]), set()).add(r["digest"])
    for (workload, seed), ds in digests.items():
        if len(ds) != 1:
            errors.append(f"{workload} seed {seed}: flow-record digests differ across runs: "
                          f"{sorted(ds)}")
    return errors


def heartbeat_summary(path):
    """One line on where the traced run's time went: bulk versus tail."""
    try:
        with open(path) as f:
            beats = json.load(f)["heartbeat"]
    except (OSError, KeyError, ValueError):
        return None
    if not beats:
        return None
    total_wall = sum(b["wall_ms"] for b in beats)
    flows = beats[-1]["flows_done"]
    wall = 0.0
    for b in beats:
        wall += b["wall_ms"]
        if b["flows_done"] >= 0.9 * flows:
            break
    return (f"heartbeat: {len(beats)} slices of simulated time, 90% of flows done after "
            f"{wall / total_wall:.0%} of loop wall time; straggler tail "
            f"{1 - wall / total_wall:.0%}; max pending events "
            f"{max(b['pending'] for b in beats)}")


def layer_metric(name, workload, timed):
    """A per-layer metric: the median over the timed traced runs that report
    it, the workload's own or a companion's; 0 where no such run exists."""
    src, key = workload, name
    for prefix, (companion, inner) in COMPANIONS.get(workload, {}).items():
        if name.startswith(prefix):
            src, key = companion, inner + name[len(prefix):]
    if key == "wall_s":  # a companion's untraced run time
        vals = [r["wall_s"] for r in timed if r["workload"] == src and not r["traced"]]
    else:
        vals = [r["layer"].get(key, 0.0) for r in timed if r["workload"] == src and r["traced"]]
    return statistics.median(vals) if vals else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(BENCHMARK) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload}")
    if not build():
        log("perfbench: build failed")
        return 2

    ctx = machine_context()
    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    trace_out = stem + ".trace.json"

    runs = []
    first = input_seed(args.seed, 0)
    t0 = time.monotonic()
    try:
        if args.trace == 0:
            # A fresh input per run: the cost of one web-search schedule depends
            # on how its heavy tail falls, and the median over many inputs
            # averages that out. The warm-up and the first timed run share an input, for
            # the determinism check.
            runs += run_child(args.workload, first, False, seconds=max(1, round(args.seconds)))
        else:
            children = [(args.workload, False, None), (args.workload, True, trace_out)]
            for companion, _ in COMPANIONS.get(args.workload, {}).values():
                children += [(companion, False, None), (companion, True, None)]
            # Whole rounds first, then single processes until the time is up.
            n = 0
            while n < len(children) or time.monotonic() - t0 < args.seconds:
                workload, traced, out = children[n % len(children)]
                runs += run_child(workload, first, traced, runs=TRACE_RUNS, trace_out=out)
                n += 1
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
        log(f"perfbench: {e}")
        return 1
    elapsed = time.monotonic() - t0

    errors = check(runs)
    # Warm-up runs are checked but not measured.
    timed = [r for r in runs if not r["warmup"]]
    plain = [r for r in timed if r["workload"] == args.workload and not r["traced"]]
    traced = [r for r in timed if r["workload"] == args.workload and r["traced"]]

    metrics = {}
    if args.trace == 0:
        for m in spec["end_to_end"]:
            value = statistics.median(r[m["name"]] for r in plain)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layer_metric(m["name"], args.workload, timed),
                                  "unit": m["unit"]}
        metrics["trace.overhead_s"]["value"] = (statistics.median(r["wall_s"] for r in traced) -
                                                statistics.median(r["wall_s"] for r in plain))

    offered = sum(r["flows_offered"] for r in runs)
    incomplete = sum(r["flows_offered"] - r["flows_completed"] for r in runs)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {len(runs)} runs "
          f"in {elapsed:.1f} s")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in ctx.items()))
    for key in sorted({(r["workload"], r["seed"]) for r in runs}):
        same = [x for x in runs if (x["workload"], x["seed"]) == key]
        sim = ", ".join(f"sim.{k}={v:.6g}" for k, v in same[0]["sim"].items())
        print(f"{key[0]} input {key[1]}: digest {same[0]['digest']} ({len(same)} runs), {sim}")
    print(f"flows_offered={offered} flows_incomplete={incomplete}")
    if args.trace == 0 and len(plain) > 1:
        for name in TIMES:
            q = statistics.quantiles([r[name] for r in plain], n=10, method="inclusive")
            print(f"{name} over {len(plain)} timed runs: p10 {q[0]:.4g}, median {q[4]:.4g}, "
                  f"p90 {q[8]:.4g} s")
    if args.trace == 1:
        print("transport.deliver_ns includes the NIC enqueue and observer calls each delivery "
              "triggers; per-call ns figures include one span's cost (trace.span_ns)")
        beat = heartbeat_summary(trace_out)
        if beat:
            print(beat)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for e in errors:
        log(f"perfbench: check failed: {e}")

    with open(stem + ".json", "w") as f:
        json.dump({"context": ctx, "args": vars(args), "runs": runs, "metrics": metrics,
                   "errors": errors}, f, indent=1)
    print(json.dumps({"correct": not errors, "attempted": offered,
                      "failed": incomplete, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
