#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload mm2_thrash --seed 1 --seconds 30 \
        --trace 0

Builds perfbench (and libmermaid from ../src) in Release mode under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload for about --seconds of host time (at least one pass over its
instances, see README.md), and prints the benchmark's JSON result
as the last line of standard output. Build output goes to standard error.
With --trace 1 the spans of the newest traced iteration are written to
spans_<workload>.json in the build directory. Exits non-zero when the build
fails, the run fails, or any output fails verification.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mm2_thrash", "mm1_hetero", "fleet_zipf")
# The benchmark binary bounds its own run; this only guards against a hang.
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds perfbench; returns the binary's path."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(build_dir(), "spans_%s.json" % args.workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode < 0:
        # Killed by a signal (a failed internal check aborts): print what it
        # reported, but no result.
        print("\n".join(lines), file=sys.stderr)
        raise SystemExit("perfbench: run died with signal %d"
                         % -proc.returncode)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        print("\n".join(lines), file=sys.stderr)
        raise SystemExit("perfbench: no result line")
    print("\n".join(lines))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
