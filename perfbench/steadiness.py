#!/usr/bin/env python3
"""Steadiness self-check of the benchmark.

Runs every workload of BENCHMARK.json --runs times (one seed per run) with
tracing off, then reports for each end-to-end metric its median and its
quartile spread (Q3 - Q1, as statistics.quantiles(values, n=4) gives them,
as a share of the median) against the metric's bound.  With --sets 2 the
whole measurement is repeated and the second set's median must not be worse
than the first's by more than the bound, which is how a change is judged.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--sets 1] [--first-seed 1]

Raw values are written to .bench_out/steadiness.json.  The exit code is 1
if any spread exceeds its bound, if a set drifts by more than a bound, or
if a run fails or reports incorrect output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def worse_by(first, second, better):
    """Relative amount by which `second` is worse than `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=[1, 2])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]

    raw = {}
    ok = True
    for s in range(args.sets):
        for workload in workloads:
            values = {m["name"]: [] for m in metrics}
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                try:
                    got = run_once(workload, seed, seconds)
                except (RuntimeError, subprocess.TimeoutExpired) as e:
                    print(f"FAIL {e}")
                    return 1
                for m in metrics:
                    values[m["name"]].append(got[m["name"]])
            raw.setdefault(workload, []).append(values)
            print(f"set {s + 1} {workload}")
            for m in metrics:
                med, rel = spread(values[m["name"]])
                bound = m["bound"]
                verdict = ("steady" if rel < bound / 3 else
                           "within" if rel <= bound else "TOO NOISY")
                if rel > bound:
                    ok = False
                print(f"  {m['name']:18} median {med:12.4f} {m['unit']:4} "
                      f"spread {100 * rel:6.2f}% bound {100 * bound:5.1f}% "
                      f"{verdict}")
    if args.sets == 2:
        print("drift of set 2 against set 1")
        for workload in workloads:
            first, second = raw[workload]
            for m in metrics:
                a = statistics.median(first[m["name"]])
                b = statistics.median(second[m["name"]])
                drift = worse_by(a, b, m["better"])
                if drift > m["bound"]:
                    ok = False
                print(f"  {workload:12} {m['name']:18} worse by "
                      f"{100 * drift:6.2f}% (bound {100 * m['bound']:.1f}%)")

    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "steadiness.json"), "w") as f:
        json.dump(raw, f, indent=1)
    print("steady enough" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
