#!/usr/bin/env bash
# Full-service round trip used by ctest and CI:
#   1. start mrsc_serve on an ephemeral port,
#   2. drive it with mrsc_loadgen (a corpus small enough that the run
#      revisits every request, so cache hits are guaranteed),
#   3. SIGTERM the server and demand a clean exit-0 shutdown,
#   4. assert zero loadgen errors and >= 1 server cache hit.
#
# Usage: serve_roundtrip.sh <mrsc_serve> <mrsc_loadgen>
set -u

SERVE_BIN=${1:?usage: serve_roundtrip.sh <mrsc_serve> <mrsc_loadgen>}
LOADGEN_BIN=${2:?usage: serve_roundtrip.sh <mrsc_serve> <mrsc_loadgen>}

WORK_DIR=$(mktemp -d)
trap 'kill "$SERVER_PID" 2>/dev/null; rm -rf "$WORK_DIR"' EXIT

"$SERVE_BIN" --port-file "$WORK_DIR/port" --workers 2 >"$WORK_DIR/serve.log" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [ -s "$WORK_DIR/port" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { echo "FAIL: server died on startup"; cat "$WORK_DIR/serve.log"; exit 1; }
  sleep 0.1
done
PORT=$(cat "$WORK_DIR/port")
[ -n "$PORT" ] || { echo "FAIL: no port written"; exit 1; }

"$LOADGEN_BIN" --port "$PORT" --rate 60 --duration 2 \
  --json "$WORK_DIR/loadgen.json"
LOADGEN_EXIT=$?
if [ "$LOADGEN_EXIT" -ne 0 ]; then
  echo "FAIL: loadgen exited $LOADGEN_EXIT"
  cat "$WORK_DIR/serve.log"
  exit 1
fi

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_EXIT=$?
if [ "$SERVER_EXIT" -ne 0 ]; then
  echo "FAIL: server exited $SERVER_EXIT after SIGTERM"
  cat "$WORK_DIR/serve.log"
  exit 1
fi

# The report embeds the server stats; a corpus of 6 requests replayed for
# 2 s at 60 rps must produce cache hits and zero errors.
grep -Eq '"errors": ?0,' "$WORK_DIR/loadgen.json" || {
  echo "FAIL: loadgen reported errors"; cat "$WORK_DIR/loadgen.json"; exit 1; }
grep -q '"cache":{"hits":0,' "$WORK_DIR/loadgen.json" && {
  echo "FAIL: no server cache hits"; cat "$WORK_DIR/loadgen.json"; exit 1; }
grep -q '"protocol_errors":0' "$WORK_DIR/loadgen.json" || {
  echo "FAIL: server saw protocol errors"; cat "$WORK_DIR/loadgen.json"; exit 1; }

echo "PASS: round trip clean (port $PORT)"
exit 0
