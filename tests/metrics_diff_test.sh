#!/bin/sh
# Contract of the metrics regression gate: identical snapshots pass,
# regressions in the bad direction fail, improvements and neutral
# counters never fail, thresholds and parse errors behave.
set -eu

DIFF="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

cat > "$TMP/base.json" <<'EOF'
{
  "bench": "serving_load",
  "requests": 60000,
  "hit_rate": 0.5,
  "closed_loop": {"req_per_s": 1000.0},
  "open_loop": {"req_per_s": 800.0},
  "latency_us": {"p50": 100.0, "p95": 400.0, "p99": 900.0},
  "queue_depth_max": 32
}
EOF

echo "== identity diff passes =="
"$DIFF" "$TMP/base.json" "$TMP/base.json"

echo "== -20% throughput fails =="
sed 's/"req_per_s": 1000.0/"req_per_s": 800.0/' "$TMP/base.json" \
  > "$TMP/slow.json"
if "$DIFF" "$TMP/base.json" "$TMP/slow.json" 2>/dev/null; then
  echo "throughput regression not flagged" >&2
  exit 1
fi

echo "== +20% p99 latency fails =="
sed 's/"p99": 900.0/"p99": 1080.0/' "$TMP/base.json" > "$TMP/lat.json"
if "$DIFF" "$TMP/base.json" "$TMP/lat.json" 2>/dev/null; then
  echo "latency regression not flagged" >&2
  exit 1
fi

echo "== improvements pass =="
sed -e 's/"req_per_s": 1000.0/"req_per_s": 1500.0/' \
    -e 's/"p99": 900.0/"p99": 500.0/' "$TMP/base.json" > "$TMP/fast.json"
"$DIFF" "$TMP/base.json" "$TMP/fast.json"

echo "== neutral counters never regress =="
sed -e 's/"requests": 60000/"requests": 100/' \
    -e 's/"queue_depth_max": 32/"queue_depth_max": 4096/' \
    "$TMP/base.json" > "$TMP/neutral.json"
"$DIFF" "$TMP/base.json" "$TMP/neutral.json"

echo "== loose threshold tolerates the same -20% =="
"$DIFF" "$TMP/base.json" "$TMP/slow.json" --threshold=0.5

echo "== per-metric threshold overrides the default =="
if "$DIFF" "$TMP/base.json" "$TMP/slow.json" --threshold=0.5 \
    --threshold=req_per_s:0.05 2>/dev/null; then
  echo "per-metric threshold not applied" >&2
  exit 1
fi

echo "== throughput is judged by ratio: 3.5x slower fails at --threshold=2.0 =="
sed 's/"req_per_s": 1000.0/"req_per_s": 285.0/' "$TMP/base.json" \
  > "$TMP/collapse.json"
if "$DIFF" "$TMP/base.json" "$TMP/collapse.json" --threshold=2.0 \
    2>/dev/null; then
  echo "throughput collapse passed a 2.0 threshold" >&2
  exit 1
fi

echo "== ... and 2.5x slower passes it =="
sed 's/"req_per_s": 1000.0/"req_per_s": 400.0/' "$TMP/base.json" \
  > "$TMP/halved.json"
"$DIFF" "$TMP/base.json" "$TMP/halved.json" --threshold=2.0

echo "== zero throughput fails at any threshold =="
sed 's/"req_per_s": 1000.0/"req_per_s": 0.0/' "$TMP/base.json" \
  > "$TMP/zero.json"
if "$DIFF" "$TMP/base.json" "$TMP/zero.json" --threshold=100 2>/dev/null
then
  echo "zero throughput passed" >&2
  exit 1
fi

echo "== latency keeps its ratio: 3.5x fails at 2.0, 2.5x passes =="
sed 's/"p99": 900.0/"p99": 3150.0/' "$TMP/base.json" > "$TMP/lat35.json"
if "$DIFF" "$TMP/base.json" "$TMP/lat35.json" --threshold=2.0 2>/dev/null
then
  echo "3.5x latency passed a 2.0 threshold" >&2
  exit 1
fi
sed 's/"p99": 900.0/"p99": 2250.0/' "$TMP/base.json" > "$TMP/lat25.json"
"$DIFF" "$TMP/base.json" "$TMP/lat25.json" --threshold=2.0

echo "== vanished metric fails, and every difference is reported =="
sed -e 's/"hit_rate": 0.5,//' -e 's/"queue_depth_max": 32/"queue_depth_max": 32, "new_counter": 7/' \
    "$TMP/base.json" > "$TMP/keys.json"
set +e
"$DIFF" "$TMP/base.json" "$TMP/keys.json" 2> "$TMP/keys.err"
RC=$?
set -e
[ "$RC" = "1" ] || { echo "key-set mismatch not flagged (rc=$RC)" >&2; exit 1; }
grep -q "MISSING hit_rate" "$TMP/keys.err" || {
  echo "missing key not reported" >&2; exit 1; }
grep -q "NEW new_counter" "$TMP/keys.err" || {
  echo "new key not reported" >&2; exit 1; }

echo "== --allow-new-keys / --allow-missing-keys waive them =="
"$DIFF" "$TMP/base.json" "$TMP/keys.json" --allow-new-keys \
    --allow-missing-keys
if "$DIFF" "$TMP/base.json" "$TMP/keys.json" --allow-new-keys 2>/dev/null
then
  echo "missing key passed with only --allow-new-keys" >&2
  exit 1
fi

echo "== a declared \"better\" sets the direction of its object's leaves =="
cat > "$TMP/declared.json" <<'EOF'
{
  "read_hot": {
    "setup_s": {"value": 0.4, "unit": "s", "better": "lower"},
    "quality_hits": {"value": 95, "unit": "count", "better": "higher"},
    "cpu_us_per_op": {"value": 20.0, "unit": "us"}
  }
}
EOF
"$DIFF" "$TMP/declared.json" "$TMP/declared.json"

echo "== ... lower: setup_s x4 fails, a faster set-up passes =="
sed 's/"value": 0.4,/"value": 1.6,/' "$TMP/declared.json" > "$TMP/setup4.json"
if "$DIFF" "$TMP/declared.json" "$TMP/setup4.json" --threshold=1.0 \
    2>/dev/null; then
  echo "declared lower-is-better leaf did not gate" >&2
  exit 1
fi
sed 's/"value": 0.4,/"value": 0.2,/' "$TMP/declared.json" \
  > "$TMP/setup_fast.json"
"$DIFF" "$TMP/declared.json" "$TMP/setup_fast.json" --threshold=0

echo "== ... higher: one hit fewer fails at threshold 0, one more passes =="
sed 's/"value": 95,/"value": 94,/' "$TMP/declared.json" > "$TMP/hits_down.json"
if "$DIFF" "$TMP/declared.json" "$TMP/hits_down.json" \
    --threshold=quality_hits:0 2>/dev/null; then
  echo "declared higher-is-better leaf did not gate" >&2
  exit 1
fi
sed 's/"value": 95,/"value": 96,/' "$TMP/declared.json" > "$TMP/hits_up.json"
"$DIFF" "$TMP/declared.json" "$TMP/hits_up.json" --threshold=quality_hits:0

echo "== ... an object without \"better\" keeps the name rules (neutral) =="
sed 's/"value": 20.0,/"value": 200.0,/' "$TMP/declared.json" \
  > "$TMP/undeclared.json"
"$DIFF" "$TMP/declared.json" "$TMP/undeclared.json" --threshold=0

echo "== --slack: a near-zero tail may grow by the slack, not past it =="
cat > "$TMP/lag.json" <<'EOF2'
{"read_hot": {"gen.lag_ms.p99": {"value": 0.07, "unit": "ms", "better": "lower"}}}
EOF2
sed 's/"value": 0.07,/"value": 4.9,/' "$TMP/lag.json" > "$TMP/lag_ok.json"
sed 's/"value": 0.07,/"value": 5.2,/' "$TMP/lag.json" > "$TMP/lag_bad.json"
if "$DIFF" "$TMP/lag.json" "$TMP/lag_ok.json" --threshold=lag_ms.p99:20 \
    2>/dev/null; then
  echo "70x lag tail passed a 20x ratio without slack" >&2
  exit 1
fi
"$DIFF" "$TMP/lag.json" "$TMP/lag_ok.json" --threshold=lag_ms.p99:20 \
    --slack=lag_ms.p99:5
if "$DIFF" "$TMP/lag.json" "$TMP/lag_bad.json" --threshold=lag_ms.p99:20 \
    --slack=lag_ms.p99:5 2>/dev/null; then
  echo "lag tail past the slack passed" >&2
  exit 1
fi

echo "== ... and the ratio still binds where it is the looser bound =="
sed 's/"p99": 900.0/"p99": 1080.0/' "$TMP/base.json" > "$TMP/lat_slack.json"
"$DIFF" "$TMP/base.json" "$TMP/lat_slack.json" --threshold=0.25 \
    --slack=p99:5
if "$DIFF" "$TMP/base.json" "$TMP/lat_slack.json" --slack=p99:5 \
    2>/dev/null; then
  echo "a 180 us move passed a 5 us slack" >&2
  exit 1
fi

echo "== a malformed --slack is a usage error =="
set +e
"$DIFF" "$TMP/base.json" "$TMP/base.json" --slack=5 2>/dev/null
RC=$?
set -e
[ "$RC" = "2" ] || { echo "expected exit 2 for --slack=5, got $RC" >&2; exit 1; }

echo "== sizes in megabytes (*_mb) are lower-is-better =="
echo '{"remote": {"wire_mb": 50.0}}' > "$TMP/mb.json"
echo '{"remote": {"wire_mb": 100.0}}' > "$TMP/mb_big.json"
"$DIFF" "$TMP/mb_big.json" "$TMP/mb.json" --threshold=0
if "$DIFF" "$TMP/mb.json" "$TMP/mb_big.json" --threshold=0.75 2>/dev/null
then
  echo "doubled wire_mb passed a 0.75 threshold" >&2
  exit 1
fi

echo "== parse errors exit 2 =="
echo "not json" > "$TMP/broken.json"
set +e
"$DIFF" "$TMP/base.json" "$TMP/broken.json" 2>/dev/null
RC=$?
set -e
[ "$RC" = "2" ] || { echo "expected exit 2 for bad JSON, got $RC" >&2; exit 1; }

set +e
"$DIFF" "$TMP/base.json" 2>/dev/null
RC=$?
set -e
[ "$RC" = "2" ] || { echo "expected exit 2 for usage error, got $RC" >&2; exit 1; }

echo "metrics_diff_test: OK"
