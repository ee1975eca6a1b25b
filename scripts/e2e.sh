#!/usr/bin/env bash
# e2e.sh — end-to-end smoke of chainlogd: boot the daemon on the serving
# example program, drive a scripted query/assert/retract/delta session
# over HTTP, check every answer, scrape /metrics (plan-cache hits must
# survive fact churn with no recompiles), check /v1/explain surfaces the
# cost-based optimizer's plan choice, drive a cardinality-drift burst
# that must re-optimize the served plan exactly once without a
# recompile, then SIGTERM and assert a clean drain, and finally boot a
# durable daemon, push it past an automatic (binary) snapshot, kill -9
# it and check it recovers the same answers. Non-zero exit on any
# mismatch.
#
# Usage:
#   scripts/e2e.sh                 # build + boot + smoke + drain
#   E2E_EXTERNAL=http://host:port scripts/e2e.sh
#                                  # smoke an already-running daemon
#                                  # (e.g. inside the Docker image);
#                                  # boot/drain phases are skipped.
#
# Environment:
#   E2E_PORT     port for the locally booted daemon (default 8091)
#   CHAINLOGD    prebuilt binary to boot (default: go build ./cmd/chainlogd)
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${E2E_PORT:-8091}"
BASE="${E2E_EXTERNAL:-http://127.0.0.1:$PORT}"
TMP="$(mktemp -d)"
PID=""
FAILURES=0

cleanup() {
  if [ -n "$PID" ] && kill -0 "$PID" 2>/dev/null; then
    kill -9 "$PID" 2>/dev/null || true
  fi
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
  echo "e2e: FAIL: $*" >&2
  FAILURES=$((FAILURES + 1))
}

# post <path> <json-body> -> body on stdout; status in $STATUS
post() {
  local path="$1" body="$2"
  STATUS=$(curl -sS -o "$TMP/resp" -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' -d "$body" "$BASE$path")
  cat "$TMP/resp"
}

get() {
  local path="$1"
  STATUS=$(curl -sS -o "$TMP/resp" -w '%{http_code}' "$BASE$path")
  cat "$TMP/resp"
}

# expect <label> <want-status> <grep-fixed-string>
expect() {
  local label="$1" want_status="$2" want="$3"
  if [ "$STATUS" != "$want_status" ]; then
    fail "$label: status $STATUS, want $want_status ($(cat "$TMP/resp"))"
    return
  fi
  if [ -n "$want" ] && ! grep -qF -- "$want" "$TMP/resp"; then
    fail "$label: response $(cat "$TMP/resp") missing $want"
    return
  fi
  echo "e2e: ok: $label"
}

if [ -z "${E2E_EXTERNAL:-}" ]; then
  BIN="${CHAINLOGD:-}"
  if [ -z "$BIN" ]; then
    echo "e2e: building chainlogd" >&2
    go build -o "$TMP/chainlogd" ./cmd/chainlogd
    BIN="$TMP/chainlogd"
  fi
  "$BIN" -program examples/serving/family.dl -addr "127.0.0.1:$PORT" \
    -drain-timeout 10s >"$TMP/daemon.log" 2>&1 &
  PID=$!
  echo "e2e: booted chainlogd pid $PID on port $PORT" >&2
fi

wait_healthy() {
  for i in $(seq 1 100); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "e2e: daemon never became healthy" >&2
  [ -n "$PID" ] && cat "$TMP/daemon.log" >&2
  exit 1
}
wait_healthy

get /healthz >/dev/null
expect "healthz" 200 '"status":"ok"'

# 1. Baseline queries: prepared template, batch, one-shot, boolean.
post /v1/query '{"template": "ancestor(?, Y)", "args": ["bart"]}' >/dev/null
expect "template query" 200 '"rows":[["abe"],["homer"],["orville"]]'

post /v1/query '{"template": "ancestor(?, Y)", "batch": [["bart"], ["homer"]]}' >/dev/null
expect "batch query" 200 '"rows":[["abe"],["orville"]]'

post /v1/query '{"query": "ancestor(X, abe)"}' >/dev/null
expect "one-shot inverse query" 200 '"rows":[["bart"],["homer"],["lisa"],["maggie"]]'

post /v1/query '{"query": "ancestor(bart, orville)"}' >/dev/null
expect "boolean query" 200 '"true":true'

# 2. Assert a new fact; the same plan must serve the new answer.
post /v1/assert '{"facts": [{"pred": "parent", "args": ["orville", "eve"]}]}' >/dev/null
expect "assert" 200 '"asserted":1'

post /v1/query '{"template": "ancestor(?, Y)", "args": ["bart"]}' >/dev/null
expect "query after assert" 200 '"rows":[["abe"],["eve"],["homer"],["orville"]]'

# 3. Retract it again; the answer must revert.
post /v1/retract '{"facts": [{"pred": "parent", "args": ["orville", "eve"]}]}' >/dev/null
expect "retract" 200 '"retracted":1'

post /v1/query '{"template": "ancestor(?, Y)", "args": ["bart"]}' >/dev/null
expect "query after retract" 200 '"rows":[["abe"],["homer"],["orville"]]'

# 4. Ordered delta: assert two, retract one — the insert-then-delete
# pair cancels, so the reported counts are the net single assert and
# the epoch moves exactly once.
post /v1/delta '{"ops": [
  {"op": "assert",  "pred": "parent", "args": ["orville", "zeke"]},
  {"op": "assert",  "pred": "parent", "args": ["orville", "gone"]},
  {"op": "retract", "pred": "parent", "args": ["orville", "gone"]}
]}' >/dev/null
expect "delta" 200 '"asserted":1,"retracted":0'

post /v1/query '{"template": "ancestor(?, Y)", "args": ["bart"]}' >/dev/null
expect "query after delta" 200 '"rows":[["abe"],["homer"],["orville"],["zeke"]]'

# 5. Malformed bodies are client errors, not 500s.
post /v1/query '{"nope": 1}' >/dev/null
expect "unknown field" 400 '"error"'
post /v1/query 'not json' >/dev/null
expect "non-JSON body" 400 '"error"'

# 6. Explain: the compilation route plus the cost-based optimizer's
# decision — chosen strategy with its estimated cost, and the costed
# alternatives it rejected.
get '/v1/explain?query=ancestor(bart,%20Y)' >/dev/null
expect "explain" 200 'equation system'
expect "explain plan choice" 200 'plan choice:'
expect "explain chosen strategy" 200 'chosen: '
expect "explain plan cost" 200 'estimated cost'
if ! grep -qF 'rejected: ' "$TMP/resp"; then
  fail "explain lists no rejected alternatives: $(cat "$TMP/resp")"
else
  echo "e2e: ok: explain lists rejected alternatives"
fi

# 7. Metrics: every query body compiles through the one plan cache, so
# the three shapes asked so far — ancestor(?, Y) (the template, its
# batch, and the explain of its literal), ancestor(X, ?) and
# ancestor(?, ?) (the two one-shot queries) — must each have compiled
# exactly once and been reused across the fact churn above.
get /metrics >"$TMP/metrics"
expect "metrics scrape" 200 'chainlogd_requests_total'
if ! grep -q '^chainlogd_plan_compiles_total 3$' "$TMP/metrics"; then
  fail "want one compile per query shape (3) across fact churn: $(grep '^chainlogd_plan_compiles_total' "$TMP/metrics")"
else
  echo "e2e: ok: one plan compile per query shape across fact churn"
fi
HITS=$(grep '^chainlogd_plan_cache_hits_total' "$TMP/metrics" | awk '{print $2}')
if [ -z "$HITS" ] || [ "$HITS" -lt 3 ]; then
  fail "plan-cache hits $HITS, want >= 3"
else
  echo "e2e: ok: plan-cache hits = $HITS across fact churn"
fi

# 8. Plan re-optimization end to end. The template plan's route was
# costed against boot-time cardinalities; a delta burst that grows the
# parent relation far past the drift floor (>= 8 tuples and >= 25%)
# must make the very next run of that plan re-choose its route —
# exactly once, with no plan recompile, and with the answer unchanged.
# The burst facts hang off fresh constants so no ancestor of bart is
# added.
REOPT0=$(grep '^chainlog_plan_reoptimizations_total' "$TMP/metrics" | awk '{print $2}')
if [ -z "$REOPT0" ]; then
  fail "metrics missing chainlog_plan_reoptimizations_total"
  REOPT0=0
fi
BURST='{"ops": ['
for i in $(seq 0 11); do
  BURST="$BURST{\"op\": \"assert\", \"pred\": \"parent\", \"args\": [\"cousin$i\", \"greataunt$i\"]},"
done
BURST="${BURST%,}]}"
post /v1/delta "$BURST" >/dev/null
expect "drift burst" 200 '"asserted":12'

post /v1/query '{"template": "ancestor(?, Y)", "args": ["bart"]}' >/dev/null
expect "query after drift burst" 200 '"rows":[["abe"],["homer"],["orville"],["zeke"]]'
get /metrics >"$TMP/metrics"
REOPT1=$(grep '^chainlog_plan_reoptimizations_total' "$TMP/metrics" | awk '{print $2}')
if [ "$((REOPT1 - REOPT0))" != 1 ]; then
  fail "drift burst: reoptimizations went $REOPT0 -> $REOPT1, want exactly one re-optimization"
else
  echo "e2e: ok: drift burst re-optimized the plan exactly once"
fi

# A second run sees the refreshed cardinalities and must not re-optimize
# again.
post /v1/query '{"template": "ancestor(?, Y)", "args": ["bart"]}' >/dev/null
expect "settled query after re-optimization" 200 '"rows":[["abe"],["homer"],["orville"],["zeke"]]'
get /metrics >"$TMP/metrics"
REOPT2=$(grep '^chainlog_plan_reoptimizations_total' "$TMP/metrics" | awk '{print $2}')
if [ "$REOPT2" != "$REOPT1" ]; then
  fail "settled plan re-optimized again: $REOPT1 -> $REOPT2"
else
  echo "e2e: ok: re-optimized plan is stable on the next run"
fi
# The re-optimization must not have recompiled anything in the plan
# cache (it re-costs inside the prepared handle).
if ! grep -q '^chainlogd_plan_compiles_total 3$' "$TMP/metrics"; then
  fail "re-optimization recompiled a cached plan: $(grep '^chainlogd_plan_compiles_total' "$TMP/metrics")"
else
  echo "e2e: ok: re-optimization reused the compiled plan"
fi

# 9. Deadline enforcement end to end: an absurd 1ms... the family graph
# is tiny, so instead check the contract with timeout_ms accepted and a
# normal answer returned (the heavy-traversal 504 path is pinned by unit
# tests).
post /v1/query '{"template": "ancestor(?, Y)", "args": ["bart"], "timeout_ms": 1000}' >/dev/null
expect "deadline-carrying query" 200 '"rows":'

# 10. Live view subscription: subscribe to /v1/watch, mutate, read the
# exact delta lines, then reconnect with the heartbeat cursor and check
# only the missed delta is replayed — no duplicates, no reset.
WATCH_URL="$BASE/v1/watch?template=ancestor(%3F,%20Y)&arg=bart"
: >"$TMP/watch1"
curl -sSN --max-time 20 "$WATCH_URL" >"$TMP/watch1" 2>/dev/null &
WATCH_PID=$!
watch_wait() { # watch_wait <file> <fixed-string> <label>
  local file="$1" want="$2" label="$3"
  for i in $(seq 1 100); do
    if grep -qF -- "$want" "$file" 2>/dev/null; then
      echo "e2e: ok: $label"
      return 0
    fi
    sleep 0.1
  done
  fail "$label: $(cat "$file" 2>/dev/null)"
  return 1
}
watch_wait "$TMP/watch1" '"reset":true' "watch reset line"
watch_wait "$TMP/watch1" '"rows":[["abe"],["homer"],["orville"],["zeke"]]' "watch snapshot rows"

post /v1/assert '{"facts": [{"pred": "parent", "args": ["orville", "watchkid"]}]}' >/dev/null
expect "watch-session assert" 200 '"asserted":1'
watch_wait "$TMP/watch1" '"added":[["watchkid"]]' "watch delta (added)"

post /v1/retract '{"facts": [{"pred": "parent", "args": ["orville", "watchkid"]}]}' >/dev/null
expect "watch-session retract" 200 '"retracted":1'
watch_wait "$TMP/watch1" '"removed":[["watchkid"]]' "watch delta (removed)"

HB=$(grep '"head":' "$TMP/watch1" | tail -1)
CURSOR=$(echo "$HB" | grep -o '"head":[0-9]*' | cut -d: -f2)
GEN=$(echo "$HB" | grep -o '"gen":[0-9]*' | cut -d: -f2)
kill "$WATCH_PID" 2>/dev/null || true
wait "$WATCH_PID" 2>/dev/null || true
if [ -z "$CURSOR" ] || [ -z "$GEN" ]; then
  fail "watch heartbeat carried no resume cursor: $HB"
else
  # Mutate while disconnected, then resume from the cursor.
  post /v1/assert '{"facts": [{"pred": "parent", "args": ["orville", "watchkid2"]}]}' >/dev/null
  expect "watch-offline assert" 200 '"asserted":1'
  curl -sSN --max-time 2 "$WATCH_URL&from=$CURSOR&gen=$GEN" >"$TMP/watch2" 2>/dev/null || true
  if ! grep -qF '"added":[["watchkid2"]]' "$TMP/watch2"; then
    fail "watch resume missed the offline delta: $(cat "$TMP/watch2")"
  elif grep -qF '"reset":true' "$TMP/watch2"; then
    fail "in-window watch resume forced a reset: $(cat "$TMP/watch2")"
  elif grep -qF '"added":[["watchkid"]]' "$TMP/watch2" || grep -qF '"removed"' "$TMP/watch2"; then
    fail "watch resume replayed already-delivered deltas: $(cat "$TMP/watch2")"
  else
    echo "e2e: ok: watch resume replayed exactly the missed delta"
  fi
  post /v1/retract '{"facts": [{"pred": "parent", "args": ["orville", "watchkid2"]}]}' >/dev/null
fi

if [ -z "${E2E_EXTERNAL:-}" ]; then
  # 11. Graceful drain: SIGTERM must exit 0 after finishing in-flight work.
  kill -TERM "$PID"
  RC=0
  wait "$PID" || RC=$?
  if [ "$RC" != 0 ]; then
    fail "SIGTERM exit code $RC, want 0"
    cat "$TMP/daemon.log" >&2
  elif ! grep -q 'drained cleanly' "$TMP/daemon.log"; then
    fail "daemon log missing clean-drain line"
    cat "$TMP/daemon.log" >&2
  else
    echo "e2e: ok: clean drain on SIGTERM"
  fi
  PID=""

  # 12. Durability as shipped: a daemon with -wal-dir and no other
  # non-default flag but a small -snapshot-bytes takes writes until an
  # automatic snapshot has truncated the log, takes a few more (the
  # tail), is killed with -9, and must come back from snapshot + tail
  # answering exactly what it answered before.
  boot_durable() {
    "$BIN" -program examples/serving/family.dl -addr "127.0.0.1:$PORT" \
      -wal-dir "$TMP/wal" -snapshot-bytes 512 >>"$TMP/daemon.log" 2>&1 &
    PID=$!
    wait_healthy
  }
  : >"$TMP/daemon.log"
  boot_durable
  durable_asserts() { # durable_asserts <first> <last>: a chain durable<i> -> durable<i+1>
    for i in $(seq "$1" "$2"); do
      post /v1/assert "{\"facts\": [{\"pred\": \"parent\", \"args\": [\"durable$i\", \"durable$((i + 1))\"]}]}" >/dev/null
    done
  }
  durable_asserts 0 23
  for i in $(seq 1 100); do
    if ls "$TMP/wal"/snap-*.bin >/dev/null 2>&1; then break; fi
    sleep 0.1
  done
  durable_asserts 24 26
  post /v1/query '{"template": "ancestor(?, Y)", "args": ["durable0"]}' >"$TMP/before"
  expect "durable query before the crash" 200 '["durable27"]'
  kill -9 "$PID"
  wait "$PID" 2>/dev/null || true
  boot_durable
  post /v1/query '{"template": "ancestor(?, Y)", "args": ["durable0"]}' >"$TMP/after"
  expect "durable query after kill -9" 200 '["durable27"]'
  if ! cmp -s "$TMP/before" "$TMP/after"; then
    fail "answer changed across kill -9: $(cat "$TMP/before") vs $(cat "$TMP/after")"
  elif ! grep -q 'restored snapshot .*\.bin' "$TMP/daemon.log"; then
    fail "restart did not recover from a binary snapshot: $(ls "$TMP/wal"; cat "$TMP/daemon.log")"
  elif ls "$TMP/wal"/snap-*.dl >/dev/null 2>&1; then
    fail "daemon wrote a text snapshot: $(ls "$TMP/wal")"
  else
    echo "e2e: ok: kill -9 recovery from binary snapshot + tail"
  fi
  kill -TERM "$PID"
  wait "$PID" || fail "durable daemon did not drain cleanly"
  PID=""
fi

if [ "$FAILURES" -gt 0 ]; then
  echo "e2e: $FAILURES check(s) failed" >&2
  exit 1
fi
echo "e2e: all checks passed"
