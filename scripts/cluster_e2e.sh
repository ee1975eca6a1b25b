#!/usr/bin/env bash
# cluster_e2e.sh — end-to-end exercise of the replication subsystem:
# boot a WAL-backed primary and two replicas, write and read back AT A
# REPLICA with the read-your-writes check on (each write bounces 403 to
# the primary, the query after it carries X-Chainlog-Min-Epoch and any
# stale read fails the run), kill -9 the other replica mid-run, restart
# it on its surviving WAL, and assert the whole cluster converges to the
# primary's epoch with byte-identical query answers. Then a fresh
# replica joins after the primary's log has been truncated by binary
# snapshots, forcing the 410 -> binary-snapshot bootstrap path, and must
# also converge byte-identically. Finishes with a manual failover: kill
# the primary, promote a replica, and write to it. Non-zero exit on any
# mismatch.
#
# Usage:
#   scripts/cluster_e2e.sh
#
# Environment:
#   CLUSTER_BASE_PORT   first of four consecutive ports (default 8094)
set -euo pipefail
cd "$(dirname "$0")/.."

BASE_PORT="${CLUSTER_BASE_PORT:-8094}"
P_PORT=$BASE_PORT
R1_PORT=$((BASE_PORT + 1))
R2_PORT=$((BASE_PORT + 2))
R3_PORT=$((BASE_PORT + 3))
P_URL="http://127.0.0.1:$P_PORT"
R1_URL="http://127.0.0.1:$R1_PORT"
R2_URL="http://127.0.0.1:$R2_PORT"
R3_URL="http://127.0.0.1:$R3_PORT"
PROGRAM=examples/serving/family.dl

TMP="$(mktemp -d)"
P_PID="" R1_PID="" R2_PID="" R3_PID=""
FAILURES=0

cleanup() {
  for pid in "$P_PID" "$R1_PID" "$R2_PID" "$R3_PID"; do
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
      kill -9 "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
  echo "cluster-e2e: FAIL: $*" >&2
  FAILURES=$((FAILURES + 1))
}

ok() { echo "cluster-e2e: ok: $*"; }

echo "cluster-e2e: building chainlogd, chainlogctl" >&2
go build -o "$TMP/chainlogd" ./cmd/chainlogd
go build -o "$TMP/chainlogctl" ./cmd/chainlogctl

# boot_node <name> <port> <wal-dir> [extra flags...]; prints the PID.
boot_node() {
  local name="$1" port="$2" wal="$3"
  shift 3
  "$TMP/chainlogd" -program "$PROGRAM" -addr "127.0.0.1:$port" \
    -wal-dir "$wal" -snapshot-bytes 65536 -drain-timeout 5s "$@" \
    >>"$TMP/$name.log" 2>&1 &
  echo $!
}

wait_healthy() {
  local url="$1" name="$2"
  for i in $(seq 1 100); do
    if curl -sf "$url/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "cluster-e2e: $name never became healthy" >&2
  cat "$TMP/$name.log" >&2
  exit 1
}

# fact_epoch <url> — extract the fact epoch from /v1/status.
fact_epoch() {
  curl -sf "$1/v1/status" | grep -o '"fact_epoch":[0-9]*' | head -1 | cut -d: -f2
}

# The primary runs with tiny segment and snapshot thresholds, so the
# run's mutations rotate and truncate the log behind its (binary)
# snapshots — the precondition for the late-joiner bootstrap below.
P_PID=$(boot_node primary "$P_PORT" "$TMP/wal-p" \
  -segment-bytes 1024 -snapshot-bytes 2048)
wait_healthy "$P_URL" primary
R1_PID=$(boot_node replica1 "$R1_PORT" "$TMP/wal-r1" -role replica -primary "$P_URL")
R2_PID=$(boot_node replica2 "$R2_PORT" "$TMP/wal-r2" -role replica -primary "$P_URL")
wait_healthy "$R1_URL" replica1
wait_healthy "$R2_URL" replica2
ok "booted primary ($P_PID) + replicas ($R1_PID, $R2_PID)"

"$TMP/chainlogctl" status -nodes "$P_URL,$R1_URL,$R2_URL"

# post <url> <body> [header] — POST JSON: status in STATUS, reply in
# $TMP/resp, its headers in $TMP/hdr (read one with header <name>).
post() {
  STATUS=$(curl -sS -o "$TMP/resp" -D "$TMP/hdr" -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' ${3:+-H "$3"} -d "$2" "$1")
}
header() {
  tr -d '\r' <"$TMP/hdr" | awk -v h="$1:" 'tolower($1) == tolower(h) { print $2 }'
}

# ryw_rounds <first> <last> — read-your-writes at replica1, one round
# per i: the write (assert ryw_edge(k<i>, v<i>), retract the one from two
# rounds back, so two facts survive for the convergence sweep) must
# bounce 403 naming the primary; re-issued there it returns the epoch it
# reached; a query at the replica carrying that epoch must answer at or
# past it and hold the new fact, or it is a stale read.
ROUNDS=0 REDIRECTS=0 STALE=0
ryw_rounds() {
  local i delta primary epoch seen
  for i in $(seq "$1" "$2"); do
    delta="{\"ops\": [
      {\"op\": \"assert\", \"pred\": \"ryw_edge\", \"args\": [\"k$i\", \"v$i\"]},
      {\"op\": \"retract\", \"pred\": \"ryw_edge\", \"args\": [\"k$((i - 2))\", \"v$((i - 2))\"]}]}"
    post "$R1_URL/v1/delta" "$delta"
    primary=$(header X-Chainlog-Primary)
    if [ "$STATUS" != 403 ] || [ -z "$primary" ]; then
      fail "round $i: write at replica1: status $STATUS, primary '$primary' ($(cat "$TMP/resp"))"
      continue
    fi
    REDIRECTS=$((REDIRECTS + 1))
    post "$primary/v1/delta" "$delta"
    epoch=$(grep -o '"epoch":[0-9]*' "$TMP/resp" | cut -d: -f2 || true)
    if [ "$STATUS" != 200 ] || [ -z "$epoch" ]; then
      fail "round $i: write at the primary: status $STATUS ($(cat "$TMP/resp"))"
      continue
    fi
    post "$R1_URL/v1/query" "{\"template\": \"ryw_edge(?, Y)\", \"args\": [\"k$i\"]}" \
      "X-Chainlog-Min-Epoch: $epoch"
    if [ "$STATUS" != 200 ]; then
      fail "round $i: query at replica1 with min epoch $epoch: status $STATUS ($(cat "$TMP/resp"))"
      continue
    fi
    seen=$(header X-Chainlog-Epoch)
    if [ "${seen:-0}" -lt "$epoch" ] || ! grep -qF "\"rows\":[[\"v$i\"]]" "$TMP/resp"; then
      STALE=$((STALE + 1))
      echo "cluster-e2e: stale read in round $i: wrote at epoch $epoch, replica1 answered at ${seen:-none}: $(cat "$TMP/resp")" >&2
    fi
    ROUNDS=$((ROUNDS + 1))
  done
}

# 90 rounds of about 100 log bytes: several times the primary's snapshot
# threshold, so its early segments are gone by the end. A third of the
# way in replica2 is killed -9 (no drain, torn WAL tail is fair game),
# stays down for a third and restarts on the same WAL directory.
ryw_rounds 1 30
kill -9 "$R2_PID"
ok "killed replica2 (pid $R2_PID) mid-run"
ryw_rounds 31 60
R2_PID=$(boot_node replica2 "$R2_PORT" "$TMP/wal-r2" -role replica -primary "$P_URL")
wait_healthy "$R2_URL" replica2
ok "restarted replica2 (pid $R2_PID) on its WAL"
ryw_rounds 61 90

echo "cluster-e2e: read-your-writes: $ROUNDS rounds, $REDIRECTS redirects, $STALE stale reads"
if [ "$ROUNDS" -lt 90 ] || [ "$STALE" -gt 0 ]; then
  fail "read-your-writes at replica1: $ROUNDS of 90 rounds completed, $STALE stale reads"
else
  ok "read-your-writes clean: no stale reads, no failed requests"
fi
if [ "$REDIRECTS" -eq 0 ]; then
  fail "no write exercised the 403 -> primary redirect path"
else
  ok "mutations redirected to the primary"
fi

# Convergence: every node must reach the primary's final epoch.
WANT=$(fact_epoch "$P_URL")
for i in $(seq 1 100); do
  E1=$(fact_epoch "$R1_URL" || echo -1)
  E2=$(fact_epoch "$R2_URL" || echo -1)
  if [ "$E1" = "$WANT" ] && [ "$E2" = "$WANT" ]; then break; fi
  if [ "$i" = 100 ]; then
    fail "catch-up timeout: primary=$WANT replica1=$E1 replica2=$E2"
    "$TMP/chainlogctl" status -nodes "$P_URL,$R1_URL,$R2_URL" || true
  fi
  sleep 0.1
done
[ "$FAILURES" -eq 0 ] && ok "all nodes at epoch $WANT (replica2 caught up after kill -9)"

"$TMP/chainlogctl" status -nodes "$P_URL,$R1_URL,$R2_URL"

# Byte-identical answers across the cluster for a sweep of queries.
for q in 'ancestor(bart, Y)' 'ancestor(X, abe)' 'ancestor(homer, Y)' \
         'ryw_edge(X, Y)'; do
  for node in p r1 r2; do
    url_var="${node^^}_URL"
    curl -sS -X POST -H 'Content-Type: application/json' \
      -d "{\"query\": \"$q\"}" "${!url_var}/v1/query" >"$TMP/ans-$node"
  done
  if ! cmp -s "$TMP/ans-p" "$TMP/ans-r1" || ! cmp -s "$TMP/ans-p" "$TMP/ans-r2"; then
    fail "answers diverge for '$q': primary=$(cat "$TMP/ans-p") r1=$(cat "$TMP/ans-r1") r2=$(cat "$TMP/ans-r2")"
  else
    ok "byte-identical answers for '$q'"
  fi
done

# Binary snapshot endpoint: the body must carry the snapshot magic.
curl -sf "$P_URL/v1/snapshot?format=binary" -o "$TMP/snap.bin"
if [ "$(head -c8 "$TMP/snap.bin")" != "CLOGSNP1" ]; then
  fail "/v1/snapshot?format=binary did not return a binary snapshot"
else
  ok "binary snapshot endpoint serves the columnar format"
fi

# chainlogctl bootstrap must install the primary's snapshot as a .bin
# file in a fresh WAL directory.
"$TMP/chainlogctl" bootstrap -from "$P_URL" -wal-dir "$TMP/wal-ctl"
if ! ls "$TMP/wal-ctl"/snap-*.bin >/dev/null 2>&1; then
  fail "chainlogctl bootstrap did not produce a binary snapshot ($(ls "$TMP/wal-ctl"))"
else
  ok "chainlogctl bootstrap installed a binary snapshot"
fi

# Late joiner: the primary's early segments are gone (truncated by its
# binary snapshots), so a fresh replica's replication request gets 410
# and it must bootstrap from the binary snapshot stream, then converge.
R3_PID=$(boot_node replica3 "$R3_PORT" "$TMP/wal-r3" -role replica -primary "$P_URL")
wait_healthy "$R3_URL" replica3
WANT=$(fact_epoch "$P_URL")
for i in $(seq 1 100); do
  E3=$(fact_epoch "$R3_URL" || echo -1)
  if [ "$E3" = "$WANT" ]; then break; fi
  if [ "$i" = 100 ]; then
    fail "late joiner never converged: primary=$WANT replica3=$E3"
    tail -20 "$TMP/replica3.log" >&2 || true
  fi
  sleep 0.1
done
if ! grep -q "bootstrapped from" "$TMP/replica3.log"; then
  fail "late joiner did not take the snapshot bootstrap path"
else
  ok "late joiner bootstrapped from the primary's snapshot"
fi
if ! ls "$TMP/wal-r3"/snap-*.bin >/dev/null 2>&1; then
  fail "late joiner did not persist its bootstrap snapshot as binary"
else
  ok "late joiner persisted a binary bootstrap snapshot"
fi
for q in 'ancestor(bart, Y)' 'ancestor(X, abe)' 'ryw_edge(X, Y)'; do
  curl -sS -X POST -H 'Content-Type: application/json' \
    -d "{\"query\": \"$q\"}" "$P_URL/v1/query" >"$TMP/ans-p"
  curl -sS -X POST -H 'Content-Type: application/json' \
    -d "{\"query\": \"$q\"}" "$R3_URL/v1/query" >"$TMP/ans-r3"
  if ! cmp -s "$TMP/ans-p" "$TMP/ans-r3"; then
    fail "late joiner diverges for '$q': primary=$(cat "$TMP/ans-p") r3=$(cat "$TMP/ans-r3")"
  else
    ok "late joiner byte-identical for '$q'"
  fi
done

# Manual failover: kill the primary, promote replica1, write to it.
kill -9 "$P_PID"
P_PID=""
"$TMP/chainlogctl" promote -node "$R1_URL"
ROLE=$(curl -sf "$R1_URL/v1/status" | grep -o '"role":"[a-z]*"')
if [ "$ROLE" != '"role":"primary"' ]; then
  fail "replica1 role after promote: $ROLE"
else
  ok "replica1 promoted"
fi
post "$R1_URL/v1/assert" '{"facts": [{"pred": "parent", "args": ["failover", "works"]}]}'
if [ "$STATUS" != 200 ] || ! grep -q '"asserted":1' "$TMP/resp"; then
  fail "write after promote: status $STATUS, body $(cat "$TMP/resp")"
else
  ok "write accepted after failover"
fi

if [ "$FAILURES" -gt 0 ]; then
  echo "cluster-e2e: $FAILURES check(s) failed" >&2
  for log in primary replica1 replica2; do
    echo "--- $log.log ---" >&2
    tail -40 "$TMP/$log.log" >&2 || true
  done
  exit 1
fi
echo "cluster-e2e: all checks passed"
