#!/bin/sh
# Runs every bench binary (full sweeps), captures the output, and collects
# each bench's --json metrics (rko-metrics-v1, see bench/report.hpp) into
# BENCH_results.json.
set -e

BUILD_DIR="${BUILD_DIR:-./build}"
OUT_DIR="$BUILD_DIR/bench_out"
mkdir -p "$OUT_DIR"

BENCHES="bench_messaging bench_migration bench_spawn bench_pagefault \
         bench_mmap_scale bench_futex bench_apps bench_rebalance"

# Fail loudly up front if anything is missing, rather than half-way through
# a long run.
missing=0
for b in $BENCHES bench_primitives; do
  if [ ! -x "$BUILD_DIR/bench/$b" ]; then
    echo "error: bench binary not found: $BUILD_DIR/bench/$b" >&2
    missing=1
  fi
done
if [ "$missing" -ne 0 ]; then
  echo "error: build the benches first: cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

# The machine-wide home-shard default (rko/home). Each bench JSON lists the
# machines the bench actually built in its top-level "machines" key
# (nkernels, home_shards, workset_push, prefetch_window), so merged results
# from different settings are distinguishable after the fact.
echo "RKO_HOME_SHARDS=${RKO_HOME_SHARDS:-1}"

# Extra flags (e.g. --quick for a smoke run) are passed through to every
# sim bench.
for b in $BENCHES; do
  echo "########## $b ##########"
  "$BUILD_DIR/bench/$b" --json="$OUT_DIR/$b.json" "$@"
  echo
done

echo "########## bench_primitives (host wall time) ##########"
"$BUILD_DIR/bench/bench_primitives" --benchmark_min_time=0.05

# Merge the per-bench documents into one {"bench_name": {...}, ...} object.
MERGED=BENCH_results.json
{
  printf '{\n'
  first=1
  for b in $BENCHES; do
    if [ ! -s "$OUT_DIR/$b.json" ]; then
      echo "error: $b did not write $OUT_DIR/$b.json" >&2
      exit 1
    fi
    [ "$first" -eq 1 ] || printf ',\n'
    first=0
    printf '"%s": ' "$b"
    cat "$OUT_DIR/$b.json"
  done
  printf '}\n'
} > "$MERGED"
echo "collected bench metrics: $MERGED"
