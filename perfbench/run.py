#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload is_sort --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the rko
library and the perfbench binary into the build directory ($CARGO_TARGET_DIR
if set, else .bench_build, relative to the repository root); later runs only
re-check it. Build output goes to stderr. The binary's stdout is passed
through, and its last line is the result object (correct, attempted, failed,
metrics). --trace 1 also writes the recorded spans to
<build dir>/spans-<workload>.json. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("is_sort", "churn_service", "burst_rebalance")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 1


def build(build_dir):
    """Configures (once) and builds; returns the binary path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload (smoke test)")
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "bench/apps.hpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            return fail("missing %s: run from a full checkout of the repository" % needed)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return fail("build failed")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
    if args.trace:
        command += ["--spans-out", os.path.join(build_dir, "spans-%s.json" % args.workload)]
    # The binary stops starting pairs after --seconds; the last pair (an
    # untraced and a traced one with --trace 1) takes well under a minute.
    timeout = 2 * args.seconds + 60
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return fail("timed out after %d s" % timeout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        return fail("perfbench exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        sys.stderr.write(proc.stdout)
        return fail("last output line is not a result object")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
