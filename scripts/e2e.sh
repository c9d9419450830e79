#!/usr/bin/env bash
# End-to-end smoke scenarios against the release binaries: create a catalog,
# serve it, scrape it, assert, shut down gracefully. One scenario per run:
#
#   cargo build --release -p mmdbms -p mmdb-bench --bin mmdbctl --bin repro
#   bash scripts/e2e.sh observability|index|serve|trace|durable|observatory|shard
#
# Every server binds an ephemeral port (the address is read back from its
# log), and everything a scenario writes lives in a temp dir removed on exit.
# No `pipefail`: `… | head -1` and `… | grep -q` close their pipe early on
# purpose.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
MMDBCTL=$ROOT/target/release/mmdbctl
REPRO=$ROOT/target/release/repro
WORK=$(mktemp -d)
SERVER_PID=
cd "$WORK" # repro writes results/ under the cwd when it is not a checkout

cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2> /dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

# start <mmdbctl args...>: runs the server in the background, stdout to
# serve.log and stderr to serve.err.
start() {
  "$MMDBCTL" "$@" > serve.log 2> serve.err &
  SERVER_PID=$!
}

# wait_ready <pattern> <file>: until a line of <file> matches (10 s).
# wait_ready <url>: until the URL answers 2xx (10 s).
wait_ready() {
  for _ in $(seq 1 50); do
    if [ $# -eq 2 ]; then
      grep -q "$1" "$2" 2> /dev/null && return 0
    else
      curl -sf "$1" > /dev/null && return 0
    fi
    sleep 0.2
  done
  echo "e2e: not ready: $*" >&2
  cat serve.log serve.err >&2
  return 1
}

# The addresses a started `serve` announced: its query address on stdout and
# its `--metrics` sidecar on stderr.
query_addr() { sed -n 's/serving queries on \([0-9.:]*\) .*/\1/p' serve.log; }
metrics_addr() { sed -n 's/^metrics on http:\/\/\([0-9.:]*\)$/\1/p' serve.err; }

# scrape <path>: GET from the exposition server at $HTTP.
scrape() { curl -sf "http://$HTTP$1"; }

# Graceful shutdown: SIGINT drains in-flight work and exits 0.
stop_and_wait() {
  kill -INT "$SERVER_PID"
  wait "$SERVER_PID"
  SERVER_PID=
  cat serve.log
}

# start_queries <serve args...>: starts a query server with a metrics
# sidecar, waits for it (the warmup, when one is asked for, has run by then),
# sets $ADDR (queries) and $HTTP (sidecar).
start_queries() {
  start serve --listen 127.0.0.1:0 --metrics 127.0.0.1:0 "$@"
  wait_ready 'serving queries on' serve.log
  ADDR=$(query_addr)
  HTTP=$(metrics_addr)
  echo "query server at $ADDR, metrics at $HTTP"
}

# refute <pattern> <file>: fails when a line matches. (`! grep …` would not
# stop a `set -e` script.)
refute() {
  if grep -q "$1" "$2"; then
    echo "e2e: unexpected match for '$1' in $2" >&2
    return 1
  fi
}

# series_value <anchored-name>: the value of one exposition line of
# metrics.txt (`grep -F` would also match the `# TYPE` comment lines).
series_value() { grep -E "^$1 " metrics.txt | awk '{print $2}'; }

observability() {
  "$MMDBCTL" create --db ./db
  "$MMDBCTL" gen --db ./db --collection flags --count 10 --augment 2 --seed 9
  start_queries --db ./db --warmup 25
  scrape /healthz | grep -q ok
  scrape /readyz | grep -q ready
  scrape /metrics > metrics.txt
  # Both plans' latency histograms must expose buckets and have recorded
  # the warmup queries.
  grep -F 'mmdb_query_range_latency_seconds_bucket{plan="rbm",le="+Inf"}' metrics.txt
  grep -F 'mmdb_query_range_latency_seconds_bucket{plan="bwm",le="+Inf"}' metrics.txt
  for plan in rbm bwm; do
    count=$(grep -F "mmdb_query_range_latency_seconds_count{plan=\"$plan\"}" metrics.txt | awk '{print $2}')
    echo "$plan count: $count"
    test "$count" -gt 0
  done
  scrape /events | grep -q '"kind": "query_end"'
  stop_and_wait
}

index() {
  "$MMDBCTL" create --db ./db
  "$MMDBCTL" gen --db ./db --collection flags --count 12 --augment 3 --seed 13
  start_queries --db ./db --warmup 25
  scrape /metrics > metrics.txt
  # The warmup ran the indexed plan, so the index must have been built and
  # must have produced hits — a zero here means queries silently fell back
  # to scanning.
  hits=$(series_value mmdb_boundidx_hits_total)
  echo "boundidx hits: $hits"
  test "$hits" -gt 0
  builds=$(series_value mmdb_boundidx_builds_total)
  echo "boundidx builds: $builds"
  test "$builds" -gt 0
  # The indexed plan's latency histogram recorded the warmup traffic.
  count=$(grep -F 'mmdb_query_range_latency_seconds_count{plan="indexed"}' metrics.txt | awk '{print $2}')
  echo "indexed latency count: $count"
  test "$count" -gt 0
  # The warmup also ran BWM queries while that index was fresh. A BWM scan
  # borrows nothing from it and a write evicts nothing from it, so neither
  # family exists.
  refute '^mmdb_bwm_bound_cache_hits_total' metrics.txt
  refute '^mmdb_boundidx_entries_invalidated' metrics.txt
  stop_and_wait
  # The drain persisted the index. A row lists only the bins whose interval
  # is not [0, 0], so the file is smaller than dense rows (id, then lo and
  # hi for every bin: 8 + 16 B per bin) would be.
  size=$(wc -c < db/boundidx/conservative.idx)
  "$MMDBCTL" info --db ./db > info.txt
  rows=$(awk '/images:/ {n += $3} END {print n}' info.txt)
  divisions=$(sed -n 's/.*rgb-uniform\/\([0-9]*\)$/\1/p' info.txt)
  bins=$((divisions * divisions * divisions))
  echo "index file: $size B for $rows rows over $bins bins"
  test "$size" -lt $((rows * (8 + 16 * bins)))
}

serve() {
  "$MMDBCTL" create --db ./db
  "$MMDBCTL" gen --db ./db --collection helmets --count 12 --augment 2 --seed 11
  start_queries --db ./db
  "$REPRO" serve-load --fast --connect "$ADDR"
  # Non-zero throughput at every concurrency level of the sweep.
  tail -n +2 results/serve_throughput.csv | while IFS=, read -r scenario conc requests ok rest; do
    echo "$scenario concurrency=$conc requests=$requests ok=$ok"
    test "$requests" -gt 0
  done
  qps=$(awk -F, 'NR==2 {print $7}' results/serve_throughput.csv)
  awk -v v="$qps" 'BEGIN { exit !(v > 0) }'
  # The server-side counters observed the traffic, and the overload /
  # deadline series are registered for scraping.
  scrape /metrics > metrics.txt
  grep -F 'mmdb_server_requests_total{opcode="range"}' metrics.txt
  grep -F 'mmdb_server_overloaded_total' metrics.txt
  grep -F 'mmdb_server_deadline_exceeded_total' metrics.txt
  total=$(grep -F 'mmdb_server_requests_total{opcode="range"}' metrics.txt | awk '{print $2}')
  test "$total" -gt 0
  # Default settings describe no fast request: the load was counted as
  # dropped and /traces stayed empty.
  dropped=$(series_value mmdb_trace_dropped_total)
  echo "traces dropped: $dropped"
  test "$dropped" -gt 0
  scrape /traces > traces.json
  refute '"trace_id"' traces.json
  stop_and_wait
  # The same drain with requests executed inline on the event loop.
  start_queries --db ./db --workers 0
  "$REPRO" serve-load --fast --connect "$ADDR"
  stop_and_wait
  grep -F 'drained (0 queued at stop)' serve.log
}

trace() {
  "$MMDBCTL" create --db ./db
  "$MMDBCTL" gen --db ./db --collection helmets --count 12 --augment 2 --seed 17
  # Keep threshold 0 so every load-gen request lands in /traces; a warmup
  # so /readyz has an observable unready -> ready flip. The metrics sidecar
  # binds before the warmup: /healthz is live while /readyz still reports
  # 503.
  start serve --db ./db --listen 127.0.0.1:0 --metrics 127.0.0.1:0 \
    --warmup 25 --trace-keep-ms 0
  wait_ready '^metrics on ' serve.err
  HTTP=$(metrics_addr)
  wait_ready "http://$HTTP/healthz"
  scrape /healthz | grep -q ok
  # /readyz flips to 200 once the catalog is warm and the query server is
  # listening.
  wait_ready "http://$HTTP/readyz"
  scrape /readyz | grep -q ready
  ADDR=$(query_addr)
  echo "query server at $ADDR"
  "$REPRO" serve-load --fast --connect "$ADDR"
  # The tail-sampling store kept traces and serves them as JSON: the
  # summary list is non-empty and one trace id resolves to a span tree with
  # queue-wait attribution.
  scrape /traces > traces.json
  grep -q '"trace_id"' traces.json
  TRACE_ID=$(sed -n 's/.*"trace_id": "\([0-9a-f]*\)".*/\1/p' traces.json | head -1)
  echo "inspecting trace $TRACE_ID"
  "$MMDBCTL" traces --connect "$HTTP" --id "$TRACE_ID" > trace.json
  grep -q 'queue_wait' trace.json
  grep -q 'execute' trace.json
  # Build info and uptime are exposed for scrape-side version checks.
  scrape /metrics > metrics.txt
  grep -F 'mmdb_build_info{' metrics.txt
  grep -F 'mmdb_uptime_seconds' metrics.txt
  grep -F 'mmdb_trace_kept_total' metrics.txt
  # Where the time went is on /metrics: the load's range requests were
  # timed by the per-opcode execute histogram.
  executed=$(grep -F 'mmdb_server_execute_seconds_count{opcode="range"}' metrics.txt | awk '{print $2}')
  echo "range requests executed: $executed"
  test "$executed" -gt 0
  stop_and_wait
}

durable() {
  "$MMDBCTL" create --db ./db --fsync always
  "$MMDBCTL" gen --db ./db --collection flags --count 12 --augment 3 --seed 23
  # SIGKILL a mutating process mid-write. `churn --ops 0` inserts/modifies/
  # deletes forever under fsync always; progress lines flush every 4
  # acknowledged ops, so by the first line real mutations are on disk.
  # SIGKILL leaves whatever the filesystem holds — at worst a torn final
  # WAL record.
  "$MMDBCTL" churn --db ./db --ops 0 --report-every 4 --fsync always > churn.log &
  CHURN_PID=$!
  for _ in $(seq 1 100); do
    grep -q 'churn: ' churn.log && break
    sleep 0.2
  done
  grep -q 'churn: ' churn.log
  kill -9 $CHURN_PID
  wait $CHURN_PID || true
  cat churn.log
  # Offline check of the crashed directory. Errors mean acknowledged data
  # would be lost; a torn final record is acceptable crash residue and
  # surfaces as a note.
  "$MMDBCTL" fsck ./db | tee fsck.txt
  refute 'error \[' fsck.txt
  # Restart on the crashed directory. /readyz flips to 200 once recovery
  # (snapshot + WAL replay) and the warmup finish.
  start_queries --db ./db --warmup 10
  scrape /readyz | grep -q ready
  # The durability series are live: recovery replayed the acknowledged WAL
  # tail, and the WAL/snapshot gauges describe the directory.
  scrape /metrics > metrics.txt
  replayed=$(series_value mmdb_recovery_replayed_records_total)
  echo "replayed records: $replayed"
  test "$replayed" -gt 0
  grep -E '^mmdb_wal_segments ' metrics.txt
  grep -E '^mmdb_wal_active_segment_bytes ' metrics.txt
  grep -E '^mmdb_snapshot_last_seqno ' metrics.txt
  count=$(series_value mmdb_recovery_seconds_count)
  echo "recoveries observed: $count"
  test "$count" -gt 0
  # SIGINT drains: final snapshot + WAL fsync, exit 0.
  stop_and_wait
  # Recovered catalog answers consistently, zero replay after drain.
  "$MMDBCTL" verify --db ./db
  "$MMDBCTL" query --db ./db --color '#ff0000' --min 0.05 --plan rbm > rbm.txt
  "$MMDBCTL" query --db ./db --color '#ff0000' --min 0.05 --plan bwm > bwm.txt
  "$MMDBCTL" query --db ./db --color '#ff0000' --min 0.05 --plan indexed > indexed.txt
  grep 'img#' rbm.txt | sort > rbm.ids
  grep 'img#' bwm.txt | sort > bwm.ids
  grep 'img#' indexed.txt | sort > indexed.ids
  diff rbm.ids bwm.ids
  diff rbm.ids indexed.ids
  # The drained shutdown left nothing for the next open to replay.
  "$MMDBCTL" fsck ./db | tee fsck2.txt
  grep -q '(0 replayable' fsck2.txt
  refute 'error \[' fsck2.txt
}

observatory() {
  "$MMDBCTL" create --db ./db
  "$MMDBCTL" gen --db ./db --collection helmets --count 10 --augment 2 --seed 19
  start_queries --db ./db
  # Hot load on bin 21, plus a trickle elsewhere.
  for _ in $(seq 1 60); do
    "$MMDBCTL" query --connect "$ADDR" --bin 21 --min 0.02 --plan indexed > /dev/null
  done
  for bin in 5 9 33; do
    "$MMDBCTL" query --connect "$ADDR" --bin $bin --min 0.02 > /dev/null
  done
  # The hammered cell is the largest demand series on /metrics, beside the
  # index staleness gauges.
  scrape /metrics > metrics.txt
  grep -E '^mmdb_query_range_demand_total\{' metrics.txt | sort -k2 -n -r > demand.txt
  cat demand.txt
  test "$(head -1 demand.txt | awk '{print $1}')" = 'mmdb_query_range_demand_total{bin="21",plan="indexed"}'
  grep -E '^mmdb_boundidx_epoch_lag [0-9]+$' metrics.txt
  grep -E '^mmdb_boundidx_entries_resident [0-9]+$' metrics.txt
  # Views a scrape derives have no route: decayed heat, SLO alerts and the
  # sampling profiler (its path written as two segments) answer 404.
  for route in heat alerts 'debug profile'; do
    code=$(curl -s -o /dev/null -w '%{http_code}' "http://$HTTP/${route/ //}")
    echo "/${route/ //}: $code"
    test "$code" = 404
  done
  stop_and_wait
}

shard() {
  "$MMDBCTL" create --db ./db --shards 4
  "$MMDBCTL" gen --db ./db --collection helmets --count 12 --augment 2 --seed 23
  start_queries --db ./db
  grep -q '4 shard(s)' serve.log
  "$REPRO" serve-load --fast --connect "$ADDR"
  # The server counts requests; what a request did per shard is in its
  # query_end record (the server keeps no per-shard series).
  scrape /metrics > metrics.txt
  reqs=$(grep -F 'mmdb_server_requests_total{opcode="range"}' metrics.txt | awk '{print $2}')
  echo "range requests: $reqs"
  test "$reqs" -gt 0
  refute '^mmdb_shard_' metrics.txt
  scrape /events > events.json
  grep -qE '"kind": "query_end".*"shards": 4[,}]' events.json
  stop_and_wait
  # Reopen the drained database: each of its four shards records one
  # recovery event, and it serves at once.
  start_queries --db ./db
  "$MMDBCTL" query --connect "$ADDR" --bin 21 --min 0 --plan indexed | tee reopened.txt
  grep -q 'img#' reopened.txt
  scrape /events > events.json
  test "$(grep -c '"kind": "recovery"' events.json)" -eq 4
  stop_and_wait
  # Placement is visible offline, one row per shard.
  "$MMDBCTL" top --db ./db | tee top.txt
  rows=$(awk '/^ *shard +binary/{f=1;next} f&&/^ *[0-9]+ +[0-9]+ +[0-9]+ +[0-9]+ +[0-9]+ +[0-9]+$/{n++;next} f{exit} END{print n+0}' top.txt)
  test "$rows" -eq 4
  # fsck descends the sharded layout; after a drained shutdown every
  # shard's WAL tail must be empty (nothing left to replay).
  "$MMDBCTL" fsck ./db | tee fsck.txt
  grep -q 'sharded layout, 4 shard(s) checked' fsck.txt
  test "$(grep -c '(0 replayable' fsck.txt)" -eq 4
  refute 'error \[' fsck.txt
}

case "${1:-}" in
  observability | index | serve | trace | durable | observatory | shard)
    "$1"
    echo "e2e $1: PASS"
    ;;
  *)
    echo "usage: $0 observability|index|serve|trace|durable|observatory|shard" >&2
    exit 2
    ;;
esac
