#!/usr/bin/env python3
"""Runs perfbench workloads over several seeds and reports the spread.

    python3 perfbench/spread.py --workloads deep-fork guided-fork --seeds 1-10

For every end-to-end metric in BENCHMARK.json it prints the median, the
quartiles (statistics.quantiles(n=4)) and the spread (Q3 - Q1) / median
next to a third of the metric's bound, the steadiness target. It exits
with 1 when a run is incorrect or any spread, setup_s included, reaches
that target.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.exit("run failed: %s\n%s" % (" ".join(command), completed.stderr[-2000:]))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads:
        runs = [run(workload, seed, args.seconds, 0) for seed in parse_seeds(args.seeds)]
        bad = [r for r in runs if not r["correct"] or r["failed"]]
        print("%s: %d runs, %d incorrect" % (workload, len(runs), len(bad)))
        steady = steady and not bad
        for name, metric in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            target = metric["bound"] / 3
            flag = "" if spread < target else "  <-- above bound/3"
            steady = steady and not flag
            print("  %-24s median %14.6g  q1 %14.6g  q3 %14.6g  spread %.3f (bound/3 %.3f)%s" % (
                name, median, q1, q3, spread, target, flag))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
