#!/usr/bin/env python3
"""Diff two rko-metrics-v1 bench JSON files and gate on regressions.

Benches run in virtual time, so for a fixed seed their numbers are exactly
reproducible: any delta against a committed baseline is a real behavioral
change, not host noise. This script flattens each file's metrics (counters
and gauges to their value, histograms to their mean), prints per-metric
deltas for the selected key metrics, and exits nonzero when

  - a key metric regressed by more than --threshold (default 10%), or
  - a key metric present in the baseline is missing from the new run
    (a silently vanished measurement must not pass the gate).

Key metrics are lower-is-better duration gauges selected by glob; the
default set covers the page-fault bench's protocol latencies. Improvements
(arbitrarily large) never fail the gate — they just warrant a baseline
refresh to tighten it. The host.* gauges (process CPU ms, peak RSS MB) are
the one exception to exact reproducibility: no default key matches them,
and a gate on them (ci.sh: --key host.cpu_ms --threshold 1.0) must be
loose.

Usage:
  bench_compare.py BASELINE.json NEW.json [--threshold 0.10]
                   [--key GLOB ...] [--all]

Exit status: 0 ok, 1 regression/missing key, 2 usage or parse error.
"""

import argparse
import fnmatch
import json
import sys

DEFAULT_KEYS = [
    "fanout.*.write_fault_ns",
    "stream.*.move_ns",
    "stream.*.prefetch_move_ns",
    "fault.*_ns.mean",
    "falseshare.*handoff_ns",
    "homes.*.unsharded_ns",
    "homes.*.sharded_ns",
]


def flatten(doc):
    """rko-metrics-v1 'metrics' map -> {name: float} (histogram -> mean)."""
    out = {}
    for name, m in doc.get("metrics", {}).items():
        kind = m.get("type")
        if kind in ("counter", "gauge"):
            out[name] = float(m["value"])
        elif kind == "histogram":
            out[name] = float(m.get("mean", 0.0))
    return out


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "rko-metrics-v1":
        raise ValueError(f"{path}: not an rko-metrics-v1 document")
    return doc


def is_key(name, globs):
    return any(fnmatch.fnmatchcase(name, g) for g in globs)


def main(argv):
    ap = argparse.ArgumentParser(prog="bench_compare.py")
    ap.add_argument("baseline")
    ap.add_argument("new")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="max allowed fractional regression (default 0.10)")
    ap.add_argument("--key", action="append", default=None, metavar="GLOB",
                    help="key-metric glob (repeatable; replaces the default "
                         "set)")
    ap.add_argument("--all", action="store_true",
                    help="print every shared metric, not just key metrics")
    args = ap.parse_args(argv[1:])
    globs = args.key if args.key else DEFAULT_KEYS

    try:
        base = flatten(load(args.baseline))
        new = flatten(load(args.new))
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2

    regressions = []
    missing = []
    rows = []
    for name in sorted(base):
        key = is_key(name, globs)
        if name not in new:
            if key:
                missing.append(name)
            continue
        b, n = base[name], new[name]
        delta = (n - b) / b if b != 0 else (0.0 if n == 0 else float("inf"))
        regressed = key and delta > args.threshold
        if regressed:
            regressions.append(name)
        if key or args.all:
            mark = " <-- REGRESSION" if regressed else ""
            tag = "*" if key else " "
            rows.append(f"  {tag} {name}: {b:.0f} -> {n:.0f} "
                        f"({delta:+.1%}){mark}")

    print(f"bench_compare: {args.baseline} vs {args.new} "
          f"(threshold {args.threshold:.0%}, * = key metric)")
    for row in rows:
        print(row)
    for name in missing:
        print(f"  * {name}: present in baseline, MISSING from new run")
    if regressions or missing:
        print(f"bench_compare: FAIL — {len(regressions)} regression(s), "
              f"{len(missing)} missing key metric(s)", file=sys.stderr)
        return 1
    print(f"bench_compare: ok ({sum(1 for r in rows)} metric(s) compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
