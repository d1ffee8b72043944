#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 polybench/compare.py [--a ROOT] [--b ROOT] [--runs N]
        [--workloads popular,campaign,drift] [--seed0 S] [--json OUT]

ROOT is the root of a checkout holding polybench/ (default: the current
directory for both sets, which measures the benchmark's own noise).
Pair i runs seed S+i on both sides, alternating which side runs first.
For each workload and end-to-end metric the table shows each set's
median and quartiles, its spread (interquartile distance over median)
and the change of B's median against A's.  A metric is marked when
either set's spread exceeds its bound (setup_s excepted, as the bound
there only limits the shift of the median), or when B is worse than A
by more than the bound.  Bounds and directions come from BENCHMARK.json
in the A checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds, trace):
    command = [sys.executable, os.path.join("polybench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", default=".")
    parser.add_argument("--b", default=".")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--json", default=None, help="write every run here")
    args = parser.parse_args()

    with open(os.path.join(args.a, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    metric_specs = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    seconds = spec["run_seconds"]

    runs = {side: {w: [] for w in workloads} for side in ("a", "b")}
    failures = 0
    for workload in workloads:
        for i in range(args.runs):
            order = ("a", "b") if i % 2 == 0 else ("b", "a")
            for side in order:
                root = args.a if side == "a" else args.b
                result = run_once(root, workload, args.seed0 + i, seconds, args.trace)
                if result is None:
                    failures += 1
                    print("FAILED RUN: %s side %s seed %d"
                          % (workload, side, args.seed0 + i), file=sys.stderr)
                    continue
                runs[side][workload].append(result)
                print("%s %s seed %d: %s" % (workload, side, args.seed0 + i,
                      {k: round(v["value"], 4) for k, v in result["metrics"].items()}),
                      file=sys.stderr, flush=True)

    flagged = 0
    print("%-9s %-34s %12s %23s %12s %23s %7s %7s %7s  %s"
          % ("workload", "metric", "A median", "A [q1, q3]", "B median",
             "B [q1, q3]", "A sprd", "B sprd", "B/A-1", "marks"))
    for workload in workloads:
        for metric in metric_specs:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs[side][workload]
                             if r["correct"]] for side in ("a", "b")}
            if min(len(values["a"]), len(values["b"])) < 2:
                print("%-9s %-34s too few correct runs" % (workload, name))
                flagged += 1
                continue
            a = summary(values["a"])
            b = summary(values["b"])
            change = b[0] / a[0] - 1.0 if a[0] else float("inf")
            marks = []
            bound = metric.get("bound")
            if bound is not None:
                if name != "setup_s" and max(a[3], b[3]) > bound:
                    marks.append("SPREAD>BOUND")
                worse = change if metric["better"] == "lower" else -change
                if worse > bound:
                    marks.append("WORSE>BOUND")
            flagged += 1 if marks else 0
            print("%-9s %-34s %12.5g [%10.5g, %10.5g] %12.5g [%10.5g, %10.5g] "
                  "%7.3f %7.3f %+7.3f  %s"
                  % (workload, name, a[0], a[1], a[2], b[0], b[1], b[2],
                     a[3], b[3], change, " ".join(marks)))
        for side in ("a", "b"):
            shares = {r["failed"] / r["attempted"] for r in runs[side][workload]}
            print("%-9s failed share, set %s: %s"
                  % (workload, side.upper(), sorted(shares)))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(runs, handle, indent=1)
    print("%d failed runs, %d marked metrics" % (failures, flagged))
    return 1 if failures or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
