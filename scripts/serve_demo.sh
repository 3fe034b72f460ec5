#!/bin/sh
# A complete `webracer serve` session, driven three ways: with the
# bundled `webracer call` client on the raw line protocol, over the
# HTTP/JSON surface the same daemon serves on the same socket, and
# under sustained load from `webracer bench-serve`.
#
# Usage: scripts/serve_demo.sh
set -eu

W="dune exec --no-build bin/webracer_cli.exe --"
dune build bin/webracer_cli.exe

SOCK=$(mktemp -u)
DIR=$(mktemp -d)
trap 'rm -rf "$DIR" "$SOCK"' EXIT

cat > "$DIR/page.html" <<'HTML'
<script src="init.js"></script>
<script>var x = 1; x = x + 1;</script>
HTML
cat > "$DIR/init.js" <<'JS'
var x = 0;
JS

echo "== starting the daemon (4 workers, unix socket) =="
$W serve --socket "$SOCK" -j 4 &
PID=$!

echo
echo "== ping (answered inline by the accept loop) =="
$W call --socket "$SOCK" ping

echo
echo "== analyze (dispatched to a worker; same document as 'run --json') =="
$W call --socket "$SOCK" analyze "$DIR/page.html"

echo
echo "== the identical request again: an LRU cache hit, replayed verbatim =="
$W call --socket "$SOCK" analyze "$DIR/page.html"

echo
echo "== stats (queue depth, per-verb totals, cache hit/miss counters) =="
$W call --socket "$SOCK" stats

echo
echo "== schema v2 is per-request opt-in =="
$W call --socket "$SOCK" ping --schema 2

echo
echo "== the same daemon speaks HTTP/1.1 on the same socket (v2-native) =="
# curl would do just as well against a TCP daemon:
#   curl -s http://127.0.0.1:7788/v1/ping
#   curl -s http://127.0.0.1:7788/v1/analyze --data @params.json
$W call --socket "$SOCK" ping --http
$W call --socket "$SOCK" analyze "$DIR/page.html" --http

echo
echo "== a malformed line gets a structured bad_request, not a hangup =="
echo 'not json' | $W call --socket "$SOCK" raw || true

echo
echo "== bench-serve: barrier-released load, tail latency, shed classes =="
$W bench-serve --socket "$SOCK" --conns 4 --pipeline 8 --duration 1

echo
echo "== SIGTERM drains in-flight work and exits 0 =="
kill -TERM $PID
wait $PID
echo "daemon exited cleanly"
