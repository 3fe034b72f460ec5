#!/bin/sh
# Build the benchmark and the webracer CLI from source, then run one
# benchmark invocation from the root of the checkout:
#
#   sh bench/e2e/run.sh --workload corpus --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the harness's last stdout line is its JSON
# result. Without the webracer sources beside this directory there is
# nothing to build, and the script exits 2 without printing a result.
set -eu

root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root"

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "bench/e2e: no webracer sources in $root; nothing to build" >&2
  exit 2
fi

# The shared dune cache lives outside the checkout; keep the build inside.
DUNE_CACHE=disabled dune build --root . bench/e2e/e2e.exe bin/webracer_cli.exe >&2 || {
  echo "bench/e2e: build failed" >&2
  exit 2
}

exec ./_build/default/bench/e2e/e2e.exe "$@"
