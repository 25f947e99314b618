#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload deep-fork --seed 1 --seconds 10 --trace 0

The binary is built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) before every run; an up-to-date build costs about a
second and happens outside every measurement. Build output goes to stderr,
so the last line of stdout is the binary's result JSON. Two maintenance
modes:

    python3 perfbench/run.py --self-test        # references catch a perturbed verdict
    python3 perfbench/run.py --pin-references   # rewrite perfbench/references.tsv
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sweep-replay", "deep-fork", "guided-fork"]
BUILD_TYPE = "RelWithDebInfo"
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170
REFERENCES_HEADER = (
    "# Pinned references for perfbench (python3 perfbench/run.py --pin-references).\n"
    "# Taken with the serial full-replay executors at the default seed base.\n"
    "# workload\tleg\tbase\tdigest\tsignature=failing runs|...\tverdict per run "
    "('.' passed, else the signature's position among the sorted signatures: a, b, ...)\n"
)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for step in steps:
        try:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                return None
        except OSError as error:
            print("perfbench: cannot run %s: %s" % (step[0], error), file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def commit_id():
    """The git commit when the tree is a repository, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10)
            if result.returncode == 0:
                return result.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in os.walk(os.path.join(ROOT, top)):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run_binary(binary, workload, seed, seconds, trace, extra=(), capture=False):
    command = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--data", HERE, "--commit", commit_id()]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, "%s-seed%s.json" % (workload, seed))]
    command += list(extra)
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return None


def last_json(completed):
    lines = (completed.stdout or "").strip().splitlines() if completed else []
    return json.loads(lines[-1]) if lines else None


def self_test(binary):
    """Every workload must pass against its pinned references and fail
    against a perturbed copy of them."""
    ok = True
    for workload in WORKLOADS:
        for perturb in (False, True):
            completed = run_binary(binary, workload, DEFAULT_SEED, 1, 0,
                                   ["--perturb-reference"] if perturb else [], capture=True)
            result = last_json(completed) if completed and completed.returncode == 0 else None
            if result is None:
                passed = False
            elif perturb:
                passed = result["correct"] is False and result["failed"] > 0
            else:
                passed = result["correct"] is True and result["failed"] == 0
            ok = ok and passed
            print("%s %s %s reference: %s" % ("PASS" if passed else "FAIL", workload,
                                             "perturbed" if perturb else "pinned",
                                             json.dumps(result and {k: result[k] for k in
                                                                    ("correct", "attempted",
                                                                     "failed")})))
    return 0 if ok else 1


def pin_references(binary):
    rows = []
    for workload in WORKLOADS:
        completed = run_binary(binary, workload, DEFAULT_SEED, 1, 0, ["--pin"], capture=True)
        if completed is None or completed.returncode != 0:
            return 1
        rows += [line for line in completed.stdout.splitlines() if line.strip()]
    with open(os.path.join(HERE, "references.tsv"), "w") as handle:
        handle.write(REFERENCES_HEADER + "\n".join(rows) + "\n")
    print("pinned %d legs" % len(rows))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--pin-references", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.self_test or args.pin_references):
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(binary)
    if args.pin_references:
        return pin_references(binary)
    completed = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    return 1 if completed is None else completed.returncode


if __name__ == "__main__":
    sys.exit(main())
