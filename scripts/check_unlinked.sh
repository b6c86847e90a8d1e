#!/usr/bin/env bash
# Unlinked-code gate: lists the mali:: functions defined in libmali.a that
# no shipped executable contains (tools/, bench/, examples/ and bench/e2e's
# bench_e2e) and fails on any that scripts/unlinked_allow.txt does not name,
# and on any allow-list line that matches none of them.
#
#   scripts/check_unlinked.sh [WORK_DIR]     (default: build-unlinked)
#
# Both builds run at -O0 -ffunction-sections and link with --gc-sections, so
# nothing is inlined away and an executable keeps exactly the library
# functions something in it can reach.  The tests are not built: a function
# only a test calls is unlinked.  bench/e2e is configured as its own project
# in a separate build directory; no file under the source tree is written.
#
# Blind spot: the gate sees only symbols that libmali.a defines.  A header-
# only template that nothing in the library instantiates emits no symbol,
# so it never reaches libmali.a and the gate cannot flag it, even when only
# tests call it.  Check such headers by grepping for callers in src/,
# tools/, bench/ and examples/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
work=${1:-build-unlinked}
allow="$root/scripts/unlinked_allow.txt"
config=(-G Ninja -DCMAKE_BUILD_TYPE=None
        "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections"
        "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

mkdir -p "$work"
log="$work/build.log"
: > "$log"
run() { "$@" >> "$log" 2>&1 || { tail -n 40 "$log"; exit 1; }; }
run cmake -S "$root" -B "$work/main" "${config[@]}" -DMALI_ENABLE_TESTS=OFF
run cmake --build "$work/main" -j "$(nproc)"
run cmake -S "$root/bench/e2e" -B "$work/e2e" "${config[@]}"
run cmake --build "$work/e2e" -j "$(nproc)" --target bench_e2e

# Defined functions in namespace mali, by mangled name (_ZN4mali / _ZNK4mali:
# free functions, members and template instantiations; lambdas and local
# statics belong to their enclosing function).
mali_functions() {
  nm --defined-only "$@" |
    awk '$2 ~ /^[TW]$/ && $3 ~ /^_ZN(K)?4mali/ { print $3 }' | sort -u
}

exes=()
while IFS= read -r f; do exes+=("$f"); done < <(
  find "$work/main/tools" "$work/main/bench" "$work/main/examples" \
       -path '*/CMakeFiles' -prune -o -type f -perm -u+x -print
  echo "$work/e2e/bench_e2e")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mali_functions "$work/main/src/libmali.a" > "$tmp/lib"
mali_functions "${exes[@]}" > "$tmp/exe"
comm -23 "$tmp/lib" "$tmp/exe" | c++filt | sort -u > "$tmp/unlinked"

# Allow-list lines: "<extended regex> | <Suite.Test that calls it>"; the
# regex is matched against the demangled signature.  Blank lines and
# '#' comments are skipped.
sed -E -e '/^[[:space:]]*(#|$)/d' -e 's/[[:space:]]+\|[[:space:]]+[^|]*$//' \
  "$allow" > "$tmp/patterns"
grep -Ev -f "$tmp/patterns" "$tmp/unlinked" > "$tmp/bad" || true
# A line that matches nothing is stale: its function was deleted, or a
# shipped executable links it now.
while IFS= read -r pattern; do
  grep -Eq -e "$pattern" "$tmp/unlinked" || echo "$pattern"
done < "$tmp/patterns" > "$tmp/stale"

echo "check_unlinked: ${#exes[@]} executables," \
     "$(wc -l < "$tmp/lib") library functions," \
     "$(wc -l < "$tmp/unlinked") unlinked," \
     "$(wc -l < "$tmp/bad") not allowed," \
     "$(wc -l < "$tmp/stale") stale allow-list lines"
status=0
if [ -s "$tmp/bad" ]; then
  echo "mali:: functions no shipped executable links (delete them, or list"
  echo "them in scripts/unlinked_allow.txt with the test that calls them):"
  cat "$tmp/bad"
  status=1
fi
if [ -s "$tmp/stale" ]; then
  echo "scripts/unlinked_allow.txt lines that match no unlinked function"
  echo "(delete them):"
  cat "$tmp/stale"
  status=1
fi
exit "$status"
