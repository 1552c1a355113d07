#!/usr/bin/env python3
"""Smoke test for the benchmark: tiny sizes of every workload, both modes.

    python3 perfbench/smoke_test.py

Run from the repository root. For each workload in BENCHMARK.json it runs
run.py with --size tiny, once untraced and once traced, and checks that the
outputs pass (correct, nothing failed) and that the printed metric names and
units are exactly the end_to_end (untraced) or per_layer (traced) lists.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", "1", "--seconds", "1", "--trace", str(trace),
                       "--size", "tiny"]
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            label = "%s --trace %d" % (workload, trace)
            before = len(problems)
            if proc.returncode != 0:
                problems.append("%s: exit code %d" % (label, proc.returncode))
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%d failed=%d" % (
                    label, result["correct"], result["attempted"], result["failed"]))
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json: %s" % (
                    label, sorted(set(units.items()) ^ set(expected[trace].items()))))
            print("%-34s %s" % (label, "ok" if len(problems) == before else "FAIL"))
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
