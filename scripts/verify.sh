#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite.
#
# Usage:
#   scripts/verify.sh                 # build + full ctest
#   SIMGRAPH_VERIFY_JOBS=N scripts/verify.sh
#       # parallelism for build and ctest (default: nproc)
#   SIMGRAPH_VERIFY_TSAN=1 scripts/verify.sh
#       # additionally build the tsan preset and run the concurrency-
#       # labelled tests under ThreadSanitizer
#   SIMGRAPH_VERIFY_BENCH=1 scripts/verify.sh
#       # additionally record the end-to-end perfbench medians
#       # (scripts/perfbench_record.py, ~10 min), an ingest-focused
#       # delta-shipping smoke sweep, and the propagation kernel sweep,
#       # gating them against the committed BENCH_perfbench.json /
#       # BENCH_serving.json / BENCH_propagation.json baselines with
#       # tools/metrics_diff
#   SIMGRAPH_VERIFY_INGEST_REQUESTS=N scripts/verify.sh
#       # request count for the ingest smoke sweep (default: 6000)
#   SIMGRAPH_VERIFY_SOAK_SECONDS=N scripts/verify.sh
#       # per-leg duration of the soak drift gate run with
#       # SIMGRAPH_VERIFY_BENCH=1 (default: 30). The clean leg must pass
#       # tools/timeseries_diff and the hostile hot-key leg must trip it
#       # — the gate is validated in both directions every run.
#   SIMGRAPH_VERIFY_REPLICATION=1 scripts/verify.sh
#       # additionally run the multi-process replication smoke
#       # (scripts/replication_smoke.sh: builder + two shard-server
#       # replicas over localhost — dataset bootstrap, bit-identity,
#       # SIGSTOP lag cutoff) and a remote-shards bench leg gated
#       # against the committed BENCH_serving.json "remote" section
#       # (docs/replication.md)
#
# Exit codes (so CI can tell the failure stages apart):
#   0  everything passed
#   2  configure or build failed
#   3  a test failed
#   4  a regression gate failed (metrics_diff self-check or bench gate)
#
# Under GitHub Actions (GITHUB_ACTIONS=true) each stage is wrapped in
# ::group::/::endgroup:: markers so the log folds per stage.
set -uo pipefail

cd "$(dirname "$0")/.."

jobs="${SIMGRAPH_VERIFY_JOBS:-$(nproc)}"

group() {
  if [[ "${GITHUB_ACTIONS:-}" == "true" ]]; then
    echo "::group::$1"
  else
    echo "== $1 =="
  fi
}

endgroup() {
  if [[ "${GITHUB_ACTIONS:-}" == "true" ]]; then
    echo "::endgroup::"
  fi
}

fail() {  # fail <exit-code> <message>
  echo "verify: $2" >&2
  exit "$1"
}

group "configure"
cmake -B build -S . || fail 2 "configure failed"
endgroup

group "build (-j $jobs)"
cmake --build build -j "$jobs" || fail 2 "build failed"
endgroup

group "ctest (-j $jobs)"
ctest --test-dir build --output-on-failure -j "$jobs" \
  || fail 3 "test suite failed"
endgroup

# metrics_diff self-check: a snapshot diffed against itself must never
# regress, and the gate must actually fire on a doctored regression.
group "metrics_diff self-check"
selfcheck_dir="$(mktemp -d)"
trap 'rm -rf "$selfcheck_dir"' EXIT
cat > "$selfcheck_dir/base.json" <<'EOF'
{"closed_loop": {"req_per_s": 1000.0}, "latency_us": {"p99": 500.0}}
EOF
cat > "$selfcheck_dir/bad.json" <<'EOF'
{"closed_loop": {"req_per_s": 800.0}, "latency_us": {"p99": 500.0}}
EOF
./build/tools/metrics_diff "$selfcheck_dir/base.json" \
  "$selfcheck_dir/base.json" \
  || fail 4 "metrics_diff flagged a self-diff as a regression"
if ./build/tools/metrics_diff "$selfcheck_dir/base.json" \
    "$selfcheck_dir/bad.json" 2>/dev/null; then
  fail 4 "metrics_diff failed to flag a -20% throughput regression"
fi
endgroup

if [[ "${SIMGRAPH_VERIFY_BENCH:-0}" == "1" ]]; then
  group "perfbench end-to-end gate"
  # The real server and replica processes over TCP, every workload of
  # BENCHMARK.json, medians of three seeds; thresholds and their reasons
  # are in docs/ci.md (the same pair runs in CI's bench-smoke job).
  perfbench_record="$selfcheck_dir/BENCH_perfbench.json"
  python3 scripts/perfbench_record.py "$perfbench_record" \
    || fail 3 "perfbench record failed (an incorrect run or failed ops)"
  ./build/tools/metrics_diff BENCH_perfbench.json "$perfbench_record" \
    --threshold=3.0 --threshold=.p99:4 --threshold=lag_ms.p99:20 \
    --threshold=frontend.self_us.p99:500 \
    --threshold=publish.block_us.p99:500 \
    --threshold=read_path_sum_error:4 --threshold=batch_:1.0 \
    --threshold=bytes:0.25 --threshold=deposits_per_event:0.25 \
    --threshold=edge_ops_per_event:0.25 \
    --threshold=invalidated_per_event:0.25 --threshold=shard_skew:0.25 \
    --threshold=hit_ratio:0.25 --threshold=propagation_share:0.25 \
    --threshold=setup_s:1.5 --threshold=read_p50_us:1.5 \
    --threshold=cpu_us_per_op:1.5 --threshold=traced.:6 \
    --threshold=server_rss_mb:0.25 --threshold=quality_hits:0 \
    || fail 4 "perfbench regressed against BENCH_perfbench.json"
  endgroup

  group "ingest delta smoke gate"
  # A reduced-request shard sweep focused on the write path: the event
  # stream it replays is dataset-fixed (independent of the request
  # count), so the ingest.* and scaling.ingest_* keys are comparable
  # against the committed full-size baseline. The default threshold is
  # huge on purpose — read-side metrics are not meaningful at this size;
  # only the ingest keys gate (last matching rule wins in metrics_diff),
  # and scaling.ingest_apply_latency_ratio.mean is the one that fires if
  # per-event ingest cost ever grows with the shard count again.
  # Served from a mmap'd SGCS graph image (docs/store.md) so the smoke
  # also covers the image-backed bootstrap; recommendations are
  # bit-identical to the in-RAM path, so the baseline stays comparable.
  ingest_snapshot="$selfcheck_dir/BENCH_ingest_smoke.json"
  SIMGRAPH_BENCH_SERVE_SNAPSHOT="$ingest_snapshot" \
    SIMGRAPH_BENCH_SERVE_REQUESTS="${SIMGRAPH_VERIFY_INGEST_REQUESTS:-6000}" \
    SIMGRAPH_BENCH_SERVE_GRAPH_IMAGE="$selfcheck_dir/ingest_image.sgcs" \
    ./build/bench/bench_serving_load --shard-sweep=1,4 \
    || fail 3 "ingest delta smoke bench failed"
  if [[ -f BENCH_serving.json ]]; then
    # --allow-missing-keys: the smoke sweeps fewer shard counts than the
    # committed full-size baseline, so baseline-only shard keys are fine;
    # candidate-only keys still fail.
    ./build/tools/metrics_diff BENCH_serving.json "$ingest_snapshot" \
      --threshold=9 \
      --threshold=ingest:1.0 \
      --threshold=scaling.ingest:0.75 \
      --allow-missing-keys \
      || fail 4 "ingest delta smoke regressed against BENCH_serving.json"
  else
    echo "no committed BENCH_serving.json baseline; skipping diff"
  fi
  endgroup

  group "soak drift gate"
  # A paced minute-scale run per leg (docs/observability.md): the clean
  # leg's window series must pass tools/timeseries_diff, and the hostile
  # hot-key leg must trip it — a drift gate that cannot detect a planted
  # anomaly is not a gate. The committed BENCH_soak.json (written at 60s
  # legs) additionally bounds the clean leg's steady-state p99 and mean
  # hit rate; the loose 0.75 threshold absorbs the duration difference
  # when SIMGRAPH_VERIFY_SOAK_SECONDS is shorter than the baseline run.
  soak_snapshot="$selfcheck_dir/BENCH_soak.json"
  SIMGRAPH_BENCH_SOAK_SNAPSHOT="$soak_snapshot" \
    ./build/bench/bench_serving_load \
    --soak-seconds="${SIMGRAPH_VERIFY_SOAK_SECONDS:-30}" \
    || fail 3 "soak bench failed"
  soak_baseline=()
  if [[ -f BENCH_soak.json ]]; then
    soak_baseline=(--baseline=BENCH_soak.json --threshold=0.75)
  else
    echo "no committed BENCH_soak.json baseline; in-series gates only"
  fi
  ./build/tools/timeseries_diff "$soak_snapshot" --leg=clean \
    "${soak_baseline[@]}" \
    || fail 4 "clean soak leg tripped the drift gate"
  if ./build/tools/timeseries_diff "$soak_snapshot" --leg=hotkey \
      2>/dev/null; then
    fail 4 "hot-key soak leg did NOT trip the drift gate"
  fi
  endgroup

  group "propagation kernel bench gate"
  prop_snapshot="$selfcheck_dir/BENCH_propagation.json"
  # --benchmark_filter=^$ skips the google-benchmark suite so only the
  # env-gated propagation sweep runs.
  SIMGRAPH_BENCH_PROP_SNAPSHOT="$prop_snapshot" \
    ./build/bench/bench_micro --benchmark_filter='^$' \
    || fail 3 "propagation kernel bench failed"
  if [[ -f BENCH_propagation.json ]]; then
    ./build/tools/metrics_diff BENCH_propagation.json "$prop_snapshot" \
      --threshold=0.5 \
      || fail 4 "propagation bench regressed against BENCH_propagation.json"
  else
    echo "no committed BENCH_propagation.json baseline; skipping diff"
  fi
  endgroup
fi

if [[ "${SIMGRAPH_VERIFY_REPLICATION:-0}" == "1" ]]; then
  group "replication smoke (multi-process)"
  SMOKE_OUT="$selfcheck_dir/replication_smoke" \
    scripts/replication_smoke.sh \
    ./build/tools/simgraph_served ./build/tools/simgraph_shard_server \
    || fail 3 "replication smoke failed"
  endgroup

  group "replication bench gate (remote shards)"
  # Reduced-request run: only the remote section's keys are gated (the
  # last matching threshold rule wins), at a loose bound — loopback
  # replication throughput is noisy on shared runners; the gate exists
  # to catch the pipeline collapsing, not a few percent of drift.
  remote_snapshot="$selfcheck_dir/BENCH_remote.json"
  SIMGRAPH_BENCH_SERVE_SNAPSHOT="$remote_snapshot" \
    SIMGRAPH_BENCH_SERVE_REQUESTS=6000 \
    ./build/bench/bench_serving_load --remote-shards=2 \
    || fail 3 "remote-shards bench leg failed"
  if [[ -f BENCH_serving.json ]]; then
    ./build/tools/metrics_diff BENCH_serving.json "$remote_snapshot" \
      --threshold=9 --threshold=remote:0.75 --allow-missing-keys \
      || fail 4 "remote replication bench regressed against BENCH_serving.json"
  else
    echo "no committed BENCH_serving.json baseline; skipping diff"
  fi
  endgroup
fi

if [[ "${SIMGRAPH_VERIFY_TSAN:-0}" == "1" ]]; then
  group "TSAN concurrency pass"
  cmake -B build-tsan -S . -DSIMGRAPH_TSAN=ON \
    || fail 2 "tsan configure failed"
  cmake --build build-tsan -j "$jobs" || fail 2 "tsan build failed"
  ctest --test-dir build-tsan -L concurrency --output-on-failure \
    -j "$jobs" || fail 3 "tsan concurrency tests failed"
  endgroup
fi

echo "verify: OK"
