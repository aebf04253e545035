#!/usr/bin/env bash
# Three-node cluster smoke test, the process-level companion to the
# in-process suite in internal/node: boot three ftmmserve shards and a
# coordinator, stream through the admission plane with ftmmload, kill
# one node mid-stream, and require every stream to finish bit-exact.
# Then a drive-fault leg: one more node loses a drive mid-stream and
# starts an online rebuild of it, its log must show both and the
# rebuild's end, and its streams must finish bit-exact too. ftmmload verifies each track
# against the synthetic content and exits non-zero on any missing or
# corrupt track, so that assertion is simply its exit code.
#
# Usage: scripts/cluster_smoke.sh [bindir]
#   bindir: directory with prebuilt ftmmserve/ftmmload (default: builds
#   into a temp dir; set GOFLAGS=-race beforehand for a race-enabled
#   smoke).
set -euo pipefail

cd "$(dirname "$0")/.."

BASE_PORT="${BASE_PORT:-5600}"
PEERS=node0,node1,node2
SPEED=10        # wall clock sped up: ~107ms cycles, a title plays ~4s
TITLE_GROUPS=40       # parity groups per title (title length)
CLIENTS=6
REQUESTS=2

workdir="$(mktemp -d)"
bindir="${1:-$workdir/bin}"
pids=()

cleanup() {
  local code=$?
  for pid in "${pids[@]:-}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  if [ "$code" -ne 0 ]; then
    echo "=== smoke failed; server logs ===" >&2
    tail -n 40 "$workdir"/*.log >&2 || true
  fi
  rm -rf "$workdir"
  exit "$code"
}
trap cleanup EXIT

if [ ! -x "$bindir/ftmmserve" ]; then
  mkdir -p "$bindir"
  go build -o "$bindir" ./cmd/ftmmserve ./cmd/ftmmload
fi

# Node ports: session BASE_PORT+i, HTTP BASE_PORT+80+i.
nodes_flag=""
for i in 0 1 2; do
  addr="127.0.0.1:$((BASE_PORT + i))"
  http="127.0.0.1:$((BASE_PORT + 80 + i))"
  "$bindir/ftmmserve" -id "node$i" -peers "$PEERS" \
    -addr "$addr" -http "$http" -groups "$TITLE_GROUPS" -speed "$SPEED" \
    >"$workdir/node$i.log" 2>&1 &
  pids+=($!)
  eval "node${i}_pid=$!"
  nodes_flag+="${nodes_flag:+,}node$i=$addr/$http"
done

wait_http() {
  for _ in $(seq 1 150); do
    if curl -fsS "$1" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "timed out waiting for $1" >&2
  return 1
}

# Nodes bind only after staging their catalog slice; the coordinator
# starts once they answer, so its failure detector never sees the boot
# window (a node declared dead stays dead until re-added — that is the
# disposable-node contract, not a bug to paper over with a longer
# miss threshold).
for i in 0 1 2; do
  wait_http "http://127.0.0.1:$((BASE_PORT + 80 + i))/statusz"
done

coord_addr="127.0.0.1:$((BASE_PORT + 90))"
coord_http="127.0.0.1:$((BASE_PORT + 91))"
"$bindir/ftmmserve" -coordinator -nodes "$nodes_flag" \
  -addr "$coord_addr" -http "$coord_http" -groups "$TITLE_GROUPS" \
  -heartbeat 250ms -heartbeat-timeout 1s -miss-threshold 2 \
  >"$workdir/coord.log" 2>&1 &
pids+=($!)
wait_http "http://$coord_http/viewz"

"$bindir/ftmmload" -addr "$coord_addr" -http "$coord_http" \
  -clients "$CLIENTS" -requests "$REQUESTS" >"$workdir/load.out" 2>"$workdir/load.err" &
load_pid=$!
pids+=("$load_pid")

# Let streams get going, then kill the busiest node hard mid-stream —
# the coordinator's view carries each node's heartbeat-reported session
# count, so this always kills live streams. Those sessions must fail
# over to a replica holder and finish bit-exact.
sleep 2
victim="$(curl -fsS "http://$coord_http/viewz" | python3 -c '
import json, sys
v = json.load(sys.stdin)
m = max(v["members"], key=lambda m: m["sessions"])
if m["sessions"] == 0:
    sys.exit("no node is serving any session")
print(m["id"])
')"
victim_pid="$(eval echo "\$${victim}_pid")"
echo "killing $victim (pid $victim_pid) mid-stream"
kill -9 "$victim_pid"

if ! wait "$load_pid"; then
  echo "=== ftmmload failed ===" >&2
  cat "$workdir/load.out" "$workdir/load.err" >&2
  exit 1
fi
cat "$workdir/load.out"

# The kill must actually have been absorbed as failovers (otherwise the
# test proved nothing); the coordinator must have declared node0 dead.
if ! grep -Eq '[1-9][0-9]* failovers' "$workdir/load.out"; then
  echo "no sessions failed over — the kill missed the streams" >&2
  exit 1
fi
if ! curl -fsS "http://$coord_http/viewz" | grep -q '"dead"'; then
  echo "coordinator never declared $victim dead" >&2
  cat "$workdir/coord.log" >&2
  exit 1
fi

# Drive-fault leg: a standalone node fails drive 1 at cycle 5 and starts
# its online rebuild at cycle 10, both mid-stream (the pacer counts
# cycles from the first admission), at the default budget of C-1 reads,
# one track a cycle. Each fault logs one line stamped with the node and
# the cycle it took effect in, and so does the rebuild's end, which may
# come after the last stream's: the pacer keeps stepping while a rebuild
# runs.
drill_addr="127.0.0.1:$((BASE_PORT + 10))"
drill_http="127.0.0.1:$((BASE_PORT + 85))"
"$bindir/ftmmserve" -id drill -addr "$drill_addr" -http "$drill_http" \
  -groups "$TITLE_GROUPS" -speed "$SPEED" \
  -fail-disk 1 -fail-cycle 5 -rebuild-cycle 10 \
  >"$workdir/drill.log" 2>&1 &
pids+=($!)
wait_http "http://$drill_http/statusz"
if ! "$bindir/ftmmload" -addr "$drill_addr" -http "$drill_http" \
  -clients 4 -requests 1 >"$workdir/drill-load.out" 2>&1; then
  echo "=== ftmmload against the drive-fault node failed ===" >&2
  cat "$workdir/drill-load.out" >&2
  exit 1
fi
cat "$workdir/drill-load.out"
for want in 'node=drill cycle=5: drive 1: fail' 'node=drill cycle=10: drive 1: rebuild'; do
  if ! grep -q "$want" "$workdir/drill.log"; then
    echo "the drive-fault node's log lacks \"$want\"" >&2
    exit 1
  fi
done
restored='node=drill cycle=[0-9]+: drive 1: restored'
for i in $(seq 1 300); do
  if grep -Eq "$restored" "$workdir/drill.log"; then break; fi
  if [ "$i" -eq 300 ]; then
    echo "the drive-fault node's log lacks \"$restored\" after 60 s" >&2
    exit 1
  fi
  sleep 0.2
done
echo "cluster smoke OK"
