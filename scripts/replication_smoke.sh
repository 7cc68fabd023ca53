#!/usr/bin/env bash
# Multi-process replication smoke (docs/replication.md).
#
# Boots a builder (simgraph_served --replication-port) plus two
# simgraph_shard_server replicas over localhost, then proves, across
# real process boundaries:
#
#   1. bootstrap — both replicas train from the same dataset flags and
#      join the builder's replication session;
#   2. bit-identity — after a truncated event stream is published and
#      fully acknowledged, every sampled user gets byte-identical
#      "tweets":[...] answers from the builder and from both replicas;
#   3. lag cutoff — a SIGSTOP'd replica stops acking, the builder runs
#      more than --replication-max-lag events ahead, and wait_applied
#      RETURNS (the stalled replica is degraded out of the live set,
#      serve.replication.degraded >= 1) instead of hanging; the healthy
#      replica stays bit-identical afterwards.
#
# Usage:
#   scripts/replication_smoke.sh BUILDER_BIN REPLICA_BIN [OUT_DIR]
#
# OUT_DIR (or $SMOKE_OUT) collects logs and metrics JSON — CI uploads
# it as a failure artifact. Exit 0 = all checks
# passed.
set -uo pipefail

BUILDER_BIN="${1:?usage: replication_smoke.sh BUILDER_BIN REPLICA_BIN [OUT_DIR]}"
REPLICA_BIN="${2:?usage: replication_smoke.sh BUILDER_BIN REPLICA_BIN [OUT_DIR]}"
OUT="${3:-${SMOKE_OUT:-$(mktemp -d)}}"
mkdir -p "$OUT"

# Dataset flags MUST match between builder and replicas (the replica
# trains the same baseline state the deltas were built against).
DATA_FLAGS=(--users 400 --tweets 3000 --seed 60809)
MAX_LAG=150
SAMPLE_USERS=(1 7 42 99 123 250)

pids=()
fail() {
  echo "replication_smoke: FAIL: $1" >&2
  echo "replication_smoke: artifacts in $OUT" >&2
  exit 1
}
cleanup() {
  for pid in "${pids[@]}"; do
    kill -CONT "$pid" 2>/dev/null
    kill "$pid" 2>/dev/null
  done
}
trap cleanup EXIT

# wait_port_line LOG PATTERN -> prints the port number once the line
# shows up (the processes print "listening on port P" / "replication on
# port R" once ready).
wait_port_line() {
  local log="$1" pattern="$2" port=""
  for _ in $(seq 1 200); do
    port="$(sed -n "s/.*$pattern \([0-9][0-9]*\)\$/\1/p" "$log" | head -1)"
    [ -n "$port" ] && { echo "$port"; return 0; }
    sleep 0.1
  done
  return 1
}

# rpc PORT JSON -> one NDJSON round trip on a fresh connection.
rpc() {
  local port="$1" request="$2"
  exec 9<>"/dev/tcp/127.0.0.1/$port" || return 1
  printf '%s\n' "$request" >&9
  IFS= read -r reply <&9
  exec 9<&- 9>&-
  printf '%s\n' "$reply"
}

# tweets_of PORT USER NOW -> just the "tweets":[...] array, so replies
# that legitimately differ elsewhere (request counters, cache flags)
# still compare equal when the recommendations are bit-identical.
tweets_of() {
  rpc "$1" "{\"op\":\"recommend\",\"user\":$2,\"now\":$3,\"k\":10}" |
    sed -n 's/.*"tweets":\(\[[^]]*\]\).*/\1/p'
}

# --- boot the builder --------------------------------------------------
mkfifo "$OUT/builder.stdin"
"$BUILDER_BIN" "${DATA_FLAGS[@]}" --ttl 0 \
  --replication-port 0 \
  --replication-max-lag "$MAX_LAG" \
  --replication-stall-ms 60000 \
  --metrics-json "$OUT/builder_metrics.json" \
  < "$OUT/builder.stdin" > "$OUT/builder.log" 2>&1 &
builder_pid=$!
pids+=("$builder_pid")
exec 4> "$OUT/builder.stdin"  # keep the builder's stdin open

serve_port="$(wait_port_line "$OUT/builder.log" "listening on port")" ||
  fail "builder did not come up (builder.log)"
repl_port="$(wait_port_line "$OUT/builder.log" "replication on port")" ||
  fail "builder did not open its replication port (builder.log)"
echo "replication_smoke: builder up (serve $serve_port, replication $repl_port)"

# --- boot two replicas, both training from the dataset ----------------
declare -A replica_pid replica_port
for name in shard-a shard-b; do
  mkfifo "$OUT/$name.stdin"
  "$REPLICA_BIN" --connect "$repl_port" --name "$name" "${DATA_FLAGS[@]}" \
    --ttl 0 \
    --metrics-json "$OUT/${name}_metrics.json" \
    < "$OUT/$name.stdin" > "$OUT/$name.log" 2>&1 &
  replica_pid[$name]=$!
  pids+=("${replica_pid[$name]}")
done
exec 5> "$OUT/shard-a.stdin"
exec 6> "$OUT/shard-b.stdin"
for name in shard-a shard-b; do
  replica_port[$name]="$(wait_port_line "$OUT/$name.log" "listening on port")" ||
    fail "replica $name did not come up ($name.log)"
  grep -q "replica $name joined" "$OUT/$name.log" ||
    fail "replica $name never joined the builder ($name.log)"
done
echo "replication_smoke: both replicas joined"

# --- truncated event stream + bit-identity -----------------------------
# 120 synthetic events; the builder computes each delta once and ships
# the same bytes to every replica, so the actual event content is free.
seq=0
now=0
for i in $(seq 1 120); do
  now=$((1000000 + i * 60))
  ack="$(rpc "$serve_port" \
    "{\"op\":\"event\",\"tweet\":$((i % 3000)),\"user\":$((i % 400)),\"time\":$now}")"
  case "$ack" in
    *'"ok":true'*) seq="${ack##*\"seq\":}"; seq="${seq%%\}*}" ;;
    *) fail "event $i rejected: $ack" ;;
  esac
done
rpc "$serve_port" "{\"op\":\"wait_applied\",\"seq\":$seq}" |
  grep -q '"ok":true' || fail "builder wait_applied failed"

for user in "${SAMPLE_USERS[@]}"; do
  expected="$(tweets_of "$serve_port" "$user" "$now")"
  [ -n "$expected" ] || fail "builder returned no tweets array for user $user"
  for name in shard-a shard-b; do
    actual="$(tweets_of "${replica_port[$name]}" "$user" "$now")"
    [ "$actual" = "$expected" ] ||
      fail "user $user diverged on $name: $actual != $expected"
  done
done
echo "replication_smoke: bit-identity OK (${#SAMPLE_USERS[@]} users x 2 replicas)"

# --- lag cutoff: SIGSTOP one replica, outrun max-lag, must not hang ----
kill -STOP "${replica_pid[shard-b]}" ||
  fail "could not SIGSTOP shard-b"
for i in $(seq 121 $((121 + MAX_LAG + 50))); do
  now=$((1000000 + i * 60))
  ack="$(rpc "$serve_port" \
    "{\"op\":\"event\",\"tweet\":$((i % 3000)),\"user\":$((i % 400)),\"time\":$now}")"
  case "$ack" in
    *'"ok":true'*) seq="${ack##*\"seq\":}"; seq="${seq%%\}*}" ;;
    *) fail "event $i rejected during cutoff phase: $ack" ;;
  esac
done
# The builder must degrade the frozen replica and return — a hang here
# (cut short by the timeout) is exactly the bug the cutoff prevents.
timeout 60 bash -c "
  exec 9<>'/dev/tcp/127.0.0.1/$serve_port'
  printf '%s\n' '{\"op\":\"wait_applied\",\"seq\":$seq}' >&9
  IFS= read -r reply <&9
  case \"\$reply\" in *'\"ok\":true'*) exit 0 ;; *) exit 1 ;; esac
" || fail "wait_applied hung or failed with a SIGSTOP'd replica (lag cutoff did not trip)"

# The stats op embeds the one-line metrics registry JSON; the degraded
# counter is lazily registered, so it only appears once a degrade fired.
degraded="$(rpc "$serve_port" '{"op":"stats"}' |
  sed -n 's/.*"serve\.replication\.degraded": *\([0-9][0-9]*\).*/\1/p')"
[ -n "$degraded" ] && [ "$degraded" -ge 1 ] ||
  fail "serve.replication.degraded is '${degraded:-unset}', expected >= 1"
echo "replication_smoke: lag cutoff OK (degraded=$degraded, wait_applied returned)"

# The healthy replica must still mirror the builder after the cutoff.
for user in "${SAMPLE_USERS[@]}"; do
  expected="$(tweets_of "$serve_port" "$user" "$now")"
  actual="$(tweets_of "${replica_port[shard-a]}" "$user" "$now")"
  [ "$actual" = "$expected" ] ||
    fail "user $user diverged on shard-a after the cutoff"
done
echo "replication_smoke: post-cutoff bit-identity OK on the healthy replica"

# --- clean shutdown ----------------------------------------------------
kill -CONT "${replica_pid[shard-b]}"
exec 4>&- 5>&- 6>&-  # EOF on every stdin
rc=0
wait "$builder_pid" || { echo "builder exit $?" >&2; rc=1; }
wait "${replica_pid[shard-a]}" || { echo "shard-a exit $?" >&2; rc=1; }
wait "${replica_pid[shard-b]}" || { echo "shard-b exit $?" >&2; rc=1; }
pids=()
[ "$rc" -eq 0 ] || fail "a process exited non-zero at shutdown"

echo "replication_smoke: PASS (artifacts in $OUT)"
