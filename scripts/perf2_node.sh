#!/bin/sh
# Perf-2 against a JIT engine: times each Perf-2 kernel (EXPERIMENTS.md),
# plus the js-compute regex kernel, under `node` and under
# `webracer run --no-explore` (instrumented interpreter, last-access
# detector), and prints the time per kernel run on each side and their
# ratio. The paper's ~500x compares an instrumented interpreter with an
# uninstrumented JIT; this is the nearest local equivalent. It prints
# figures only: there is no gate, and CI does not run it.
#
# Each side runs a kernel N times inside one process (N = 50000 under
# node, where a run takes microseconds once compiled, and 50 under
# webracer); a process that defines the kernel but runs it 0 times is the
# start-up baseline, and (time(N) - time(0)) / N is the cost of one run.
# Every timing is the fastest of 5 processes.
#
# Usage: sh scripts/perf2_node.sh
set -eu

cd "$(dirname "$0")/.."

if ! command -v node >/dev/null 2>&1; then
  echo "perf2_node: node is not installed; nothing to compare"
  exit 0
fi

node_reps=50000
wr_reps=50
tries=5

dune build bin/webracer_cli.exe
W=$PWD/_build/default/bin/webracer_cli.exe

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

# The regex kernel's subject: 400 words, as in bench/e2e's js-compute
# pages at size factor 1.
parts=$(awk 'BEGIN {
  split("ab12 ooze x9y queue rhythm a1b2c3 io strength 7 aeiou", w, " ");
  for (i = 0; i < 400; i++) printf "%s\"%s\"", (i ? ", " : ""), w[(i * 7) % 10 + 1] }')

kernel() {
  case $1 in
    fib)
      echo 'function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
            return fib(16);' ;;
    string-ops)
      echo 'var s = ""; var i = 0;
            for (i = 0; i < 300; i++) { s = s + "x"; }
            var n = 0;
            for (i = 0; i < 100; i++) { n = n + s.indexOf("xx", i) + s.length; }
            return n;' ;;
    array-sum)
      echo 'var a = []; var i = 0;
            for (i = 0; i < 500; i++) { a.push(i * 3 % 17); }
            var sum = 0;
            for (i = 0; i < a.length; i++) { sum = sum + a[i]; }
            return sum;' ;;
    object-churn)
      echo 'var o = {}; var i = 0;
            for (i = 0; i < 400; i++) { o["k" + (i % 40)] = i; }
            var total = 0; var k;
            for (k in o) { total = total + o[k]; }
            return total;' ;;
    regex)
      echo "var parts = [$parts]; var s = parts.join(\" \"); var m = s.match(/[aeiou]+/g);
            return (m === null ? 0 : m.length) + \":\" + s.replace(/[0-9]+/g, \"#\").length;" ;;
  esac
}

# [program NAME N] is the kernel NAME as a function, run N times.
program() {
  printf 'function kernel() { %s }\nvar r; for (var q = 0; q < %d; q++) { r = kernel(); }\n' \
    "$(kernel "$1")" "$2"
}

now_ns() { date +%s%N; }

# [fastest CMD...] prints the fastest of $tries runs of CMD, in ns.
fastest() {
  best=
  t=0
  while [ "$t" -lt "$tries" ]; do
    t0=$(now_ns)
    "$@" >/dev/null 2>&1
    t1=$(now_ns)
    d=$((t1 - t0))
    if [ -z "$best" ] || [ "$d" -lt "$best" ]; then best=$d; fi
    t=$((t + 1))
  done
  echo "$best"
}

# [per_run SIDE NAME] prints the ms per kernel run on SIDE.
per_run() {
  if [ "$1" = node ]; then reps=$node_reps; else reps=$wr_reps; fi
  for n in 0 "$reps"; do
    mkdir -p "$DIR/$1-$2-$n"
    if [ "$1" = node ]; then
      program "$2" "$n" > "$DIR/$1-$2-$n/k.js"
      eval "t$n=\$(fastest node \"$DIR/$1-$2-$n/k.js\")"
    else
      { echo '<html><body><script>'; program "$2" "$n"; echo '</script></body></html>'; } \
        > "$DIR/$1-$2-$n/index.html"
      eval "t$n=\$(fastest \"$W\" run --no-explore \"$DIR/$1-$2-$n/index.html\")"
      # A script that ran out of its step budget would time short.
      if ! "$W" run --no-explore --json "$DIR/$1-$2-$n/index.html" | grep -q '"crashes":\[\]'; then
        echo "perf2_node: $2 crashed under webracer at $n runs" >&2
        exit 1
      fi
    fi
  done
  awk -v a="$t0" -v b="$(eval echo "\$t$reps")" -v r="$reps" \
    'BEGIN { d = (b - a) / r / 1e6; printf "%.3f", (d > 0 ? d : 0) }'
}

printf '%-14s %12s %14s %10s\n' kernel "node ms/run" "webracer ms/run" ratio
for k in fib string-ops array-sum object-churn regex; do
  tn=$(per_run node "$k")
  tw=$(per_run webracer "$k")
  awk -v k="$k" -v n="$tn" -v w="$tw" \
    'BEGIN { printf "%-14s %12.3f %14.3f %9s\n", k, n, w, (n > 0 ? sprintf("%.0fx", w / n) : "n/a") }'
done
