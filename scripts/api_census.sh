#!/bin/sh
# Name census of the library's interfaces: for every `val` declared in
# lib/**/*.mli, count the OCaml files under lib, bin, bench (bench/e2e
# included), test and scripts that mention the name, and classify it:
#
#   dead           no file mentions it apart from its own definition;
#   internal-only  only its own module's .ml mentions it (the export can
#                  go: nothing outside the module needs it);
#   test-only      outside its module only tests mention it;
#   bench-only     outside its module only bench/ or scripts/ mention it
#                  (tests may too).
#
# Names that lib/ or bin/ use outside their own module are public and are
# not listed. Dead names fail the run (exit 1); the other classes are a
# report only.
#
# Known blind spot: the census matches bare words, so a name that is also
# used elsewhere (another module's function of the same name, a record
# field, a labelled argument, a comment) hides a dead or internal-only
# export. A self-recursive function's own calls count as internal uses.
#
# Usage: sh scripts/api_census.sh      (from anywhere inside the repo)
set -eu

cd "$(dirname "$0")/.."

product=$(find lib bin -name '*.ml' | sort)
tests=$(find test -name '*.ml' | sort)
benches=$(find bench scripts -name '*.ml' | sort)

# [users NAME FILE...] prints how many of FILEs mention NAME as a word.
users() {
  name=$1
  shift
  grep -lw -e "$name" "$@" /dev/null | wc -l
}

dead=0
internal=0
test_only=0
bench_only=0
for mli in $(find lib -name '*.mli' | sort); do
  ml=${mli%i}
  others=$(printf '%s\n' $product | grep -vxF "$ml" || true)
  names=$(awk '/^[ \t]*val [a-z_]/ { sub(/^[ \t]*val /, ""); sub(/[ :].*$/, ""); print }' \
    "$mli" | sort -u)
  for name in $names; do
    if [ "$(users "$name" $others)" -gt 0 ]; then continue; fi
    in_tests=$(users "$name" $tests)
    in_benches=$(users "$name" $benches)
    if [ "$in_benches" -gt 0 ]; then
      class=bench-only
      bench_only=$((bench_only + 1))
    elif [ "$in_tests" -gt 0 ]; then
      class=test-only
      test_only=$((test_only + 1))
    elif [ -f "$ml" ] && [ "$(grep -ow -e "$name" "$ml" | wc -l)" -gt 1 ]; then
      class=internal-only
      internal=$((internal + 1))
    else
      class=dead
      dead=$((dead + 1))
    fi
    printf '%-13s %s %s\n' "$class" "$mli" "$name"
  done
done

printf 'api census: %d dead, %d internal-only, %d test-only, %d bench-only\n' \
  "$dead" "$internal" "$test_only" "$bench_only"
[ "$dead" -eq 0 ]
