#!/bin/sh
# Regression test for the bench snapshot contract: bench_serving_load
# must never write BENCH_serving.json implicitly (the committed baseline
# is updated only on purpose), and must write exactly where
# SIMGRAPH_BENCH_SERVE_SNAPSHOT points when it is set. A run without a
# mode flag must refuse with usage (exit 2) instead of measuring.
#
# Usage: bench_snapshot_test.sh <path-to-bench_serving_load>
set -eu

bench="$1"
case "$bench" in
  /*) ;;
  *) bench="$(pwd)/$bench" ;;
esac

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

# Keep the run tiny: the contract under test is file placement, not load.
SIMGRAPH_BENCH_USERS=300
SIMGRAPH_BENCH_CACHE=
SIMGRAPH_BENCH_SERVE_REQUESTS=400
export SIMGRAPH_BENCH_USERS SIMGRAPH_BENCH_CACHE \
  SIMGRAPH_BENCH_SERVE_REQUESTS

echo "== no mode: usage, exit 2 =="
set +e
"$bench" > usage_run.txt 2>&1
rc=$?
set -e
if [ "$rc" != "2" ]; then
  cat usage_run.txt
  echo "FAIL: a run without a mode exited $rc, expected 2" >&2
  exit 1
fi
grep -q "usage: bench_serving_load" usage_run.txt || {
  cat usage_run.txt
  echo "FAIL: a run without a mode printed no usage" >&2
  exit 1
}

echo "== sweep without a snapshot path: no snapshot may appear =="
"$bench" --shard-sweep=1 > default_run.txt 2>&1 || {
  cat default_run.txt
  echo "bench failed" >&2
  exit 1
}
if [ -f BENCH_serving.json ]; then
  echo "FAIL: bench wrote BENCH_serving.json without being asked" >&2
  exit 1
fi
if grep -q "bench snapshot written" default_run.txt; then
  echo "FAIL: bench claims to have written a snapshot by default" >&2
  exit 1
fi

echo "== explicit run: snapshot appears exactly at the requested path =="
SIMGRAPH_BENCH_SERVE_SNAPSHOT="$workdir/out/snap.json"
export SIMGRAPH_BENCH_SERVE_SNAPSHOT
mkdir -p "$workdir/out"
"$bench" --shard-sweep=1 > explicit_run.txt 2>&1 || {
  cat explicit_run.txt
  echo "bench failed" >&2
  exit 1
}
if [ ! -f "$workdir/out/snap.json" ]; then
  echo "FAIL: snapshot missing at SIMGRAPH_BENCH_SERVE_SNAPSHOT" >&2
  exit 1
fi
if [ -f BENCH_serving.json ]; then
  echo "FAIL: explicit snapshot run still wrote BENCH_serving.json" >&2
  exit 1
fi
grep -q '"bench": "serving_load"' "$workdir/out/snap.json"
grep -q '"s1"' "$workdir/out/snap.json"
grep -q '"closed_loop"' "$workdir/out/snap.json"
grep -q '"latency_us"' "$workdir/out/snap.json"

echo "bench_snapshot_test: OK"
