#!/bin/bash
# Live telemetry over the wire: starts simgraph_served on an ephemeral
# loopback port, issues stats / metrics / recommend commands through
# /dev/tcp, and validates the replies — in particular that the metrics
# command streams well-formed Prometheus text exposition ending in the
# "# EOF" terminator, and that stats embeds the registry snapshot. A
# last leg serves a baseline method (cf) from one unsharded service and
# checks that baselines refuse sharding and replication.
set -eu

SERVED="$1"
TMP="$(mktemp -d)"
SERVED_PID=""
cleanup() {
  # Closing stdin stops the server; kill is the fallback.
  [ -n "$SERVED_PID" ] && kill "$SERVED_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

echo "== start server =="
mkfifo "$TMP/stdin"
"$SERVED" --users 200 --tweets 1500 --seed 5 --port 0 \
  --metrics-json "$TMP/metrics.json" --metrics-flush-ms 200 \
  --stats-window-ms 100 --flight-recorder-k 8 \
  < "$TMP/stdin" > "$TMP/served.out" 2> "$TMP/served.err" &
SERVED_PID=$!
exec 9> "$TMP/stdin"   # hold the write end so stdin stays open

wait_for_port() {
  # Sets PORT from the "listening on port P" line of the server's stdout.
  PORT=""
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's/^listening on port \([0-9]*\)$/\1/p' "$1")"
    [ -n "$PORT" ] && break
    sleep 0.1
  done
  [ -n "$PORT" ] || { echo "server never reported its port" >&2; exit 1; }
  echo "port $PORT"
}

stop_server() {
  # Closes the server's stdin (fd 9) and waits for it to exit.
  exec 9>&-
  for _ in $(seq 1 100); do
    kill -0 "$SERVED_PID" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$SERVED_PID" 2>/dev/null; then
    echo "server did not exit on stdin EOF" >&2
    exit 1
  fi
  SERVED_PID=""
}

wait_for_port "$TMP/served.out"

roundtrip() {
  # One NDJSON request, one reply line.
  exec 3<>"/dev/tcp/127.0.0.1/$PORT"
  printf '%s\n' "$1" >&3
  IFS= read -r reply <&3
  exec 3<&- 3>&-
  printf '%s\n' "$reply"
}

echo "== recommend over the wire =="
REPLY="$(roundtrip '{"op":"recommend","user":3,"now":100000,"k":5}')"
echo "$REPLY" | grep -q '"ok":true'
echo "$REPLY" | grep -q '"request_id":'

echo "== stats embeds the registry snapshot =="
STATS="$(roundtrip '{"op":"stats"}')"
echo "$STATS" | grep -q '"ok":true'
echo "$STATS" | grep -q '"applied_seq":'
echo "$STATS" | grep -q '"metrics":{'
echo "$STATS" | grep -q '"counters":'

echo "== metrics streams Prometheus exposition =="
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf '{"op":"metrics"}\n' >&3
: > "$TMP/prom.txt"
while IFS= read -r line <&3; do
  printf '%s\n' "$line" >> "$TMP/prom.txt"
  [ "$line" = "# EOF" ] && break
done
exec 3<&- 3>&-

grep -q '^# EOF$' "$TMP/prom.txt"
grep -q '^# TYPE simgraph_serve_requests_total counter$' "$TMP/prom.txt"
grep -q '^simgraph_serve_requests_total [0-9][0-9]*$' "$TMP/prom.txt"
grep -q '^# TYPE simgraph_serve_request_seconds histogram$' "$TMP/prom.txt"
grep -q '^simgraph_serve_request_seconds_bucket{le="+Inf"} [0-9][0-9]*$' \
  "$TMP/prom.txt"
grep -q '^simgraph_serve_request_seconds_count [0-9][0-9]*$' "$TMP/prom.txt"

# Every non-comment line is "name[{labels}] value" with the simgraph_
# prefix; every comment is HELP/TYPE/EOF. This is the 0.0.4 text format
# a Prometheus scraper accepts.
if grep -vE '^(# (HELP|TYPE) simgraph_[a-zA-Z0-9_:]+( .*)?$|# EOF$|simgraph_[a-zA-Z0-9_:]+(\{[^}]*\})? -?[0-9+.eEinfNa][^ ]*$)' \
    "$TMP/prom.txt" | grep -q .; then
  echo "malformed exposition line(s):" >&2
  grep -vE '^(# (HELP|TYPE) simgraph_[a-zA-Z0-9_:]+( .*)?$|# EOF$|simgraph_[a-zA-Z0-9_:]+(\{[^}]*\})? -?[0-9+.eEinfNa][^ ]*$)' \
    "$TMP/prom.txt" >&2
  exit 1
fi

echo "== periodic flusher wrote the snapshot file =="
FLUSHED=0
for _ in $(seq 1 50); do
  if [ -s "$TMP/metrics.json" ] && grep -q '"counters"' "$TMP/metrics.json"
  then
    FLUSHED=1
    break
  fi
  sleep 0.1
done
[ "$FLUSHED" = "1" ] || { echo "periodic flusher never wrote" >&2; exit 1; }

echo "== stats-window returns versioned window records =="
# Windows rotate every 100ms; poll until at least one closed window with
# traffic shows up in the in-memory ring.
WINDOWED=0
for _ in $(seq 1 50); do
  WREPLY="$(roundtrip '{"op":"stats-window","n":8}')"
  if printf '%s' "$WREPLY" | grep -q '"ok":true,"op":"stats-window"' &&
     printf '%s' "$WREPLY" | grep -q '"v":1' &&
     printf '%s' "$WREPLY" | grep -q '"window":'; then
    WINDOWED=1
    break
  fi
  roundtrip '{"op":"recommend","user":5,"now":100000,"k":5}' > /dev/null
  sleep 0.1
done
[ "$WINDOWED" = "1" ] || { echo "no stats-window records" >&2; exit 1; }

echo "== slow-log returns flight-recorder entries with stages =="
# The recorder (k=8) keeps the slowest recommends of the current and
# previous window, so a dump right after a recommend holds at least one.
LOGGED=0
for _ in $(seq 1 50); do
  roundtrip '{"op":"recommend","user":6,"now":100000,"k":5}' > /dev/null
  LREPLY="$(roundtrip '{"op":"slow-log","n":8}')"
  if printf '%s' "$LREPLY" | grep -q '"ok":true,"op":"slow-log"' &&
     printf '%s' "$LREPLY" | grep -q '"total_us":' &&
     printf '%s' "$LREPLY" | grep -q '"stages":{'; then
    LOGGED=1
    break
  fi
  sleep 0.1
done
[ "$LOGGED" = "1" ] || { echo "no slow-log entries" >&2; exit 1; }

echo "== clean shutdown =="
stop_server

echo "== baseline method serves from one unsharded service =="
mkfifo "$TMP/cf_stdin"
"$SERVED" --method cf --users 200 --tweets 1500 --seed 5 --port 0 \
  < "$TMP/cf_stdin" > "$TMP/cf.out" 2> "$TMP/cf.err" &
SERVED_PID=$!
exec 9> "$TMP/cf_stdin"
wait_for_port "$TMP/cf.out"
grep -q '^serving cf over .*, 1 shard,' "$TMP/cf.out"
REPLY="$(roundtrip '{"op":"recommend","user":3,"now":100000,"k":5}')"
echo "$REPLY" | grep -q '"ok":true'
echo "$REPLY" | grep -q '"tweets":\['
stop_server

echo "== baselines refuse sharding and replication (exit 2) =="
for extra in "--shards 2" "--replication-port 0"; do
  RC=0
  # shellcheck disable=SC2086  # $extra is a flag and its value
  "$SERVED" --method cf --users 200 --tweets 1500 --seed 5 $extra \
    < /dev/null > "$TMP/refused.out" 2> "$TMP/refused.err" || RC=$?
  if [ "$RC" != "2" ]; then
    echo "--method cf $extra exited $RC, want 2" >&2
    cat "$TMP/refused.err" >&2
    exit 1
  fi
  grep -q 'requires --method simgraph' "$TMP/refused.err"
done

echo "served_telemetry_test: OK"
