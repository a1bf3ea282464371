#!/usr/bin/env bash
# Builds and runs the round-cost benchmark (bench/round/README.md).
#
#   bash bench/round/run.sh --workload un_mnist --seed 1 --seconds 15 --trace 0
#       one workload in one process; the last line of stdout is the JSON result
#   bash bench/round/run.sh [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
#       every workload, one process at a time; writes their results array to
#       FILE (default .bench_build/round/results.json)
#   bash bench/round/run.sh --compare A.json B.json
#       tools/bench_check both ways between two results arrays, with the
#       bounds from BENCHMARK.json
#
# The build goes to .bench_build at the repository root; traces and per-run
# results go to .bench_build/round.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
out_dir="$build/round"

# Half of this 4-core box's cores for the pool (the main thread drains too);
# every other SUBFEDAVG_* knob at its default.
for knob in $(compgen -e | grep '^SUBFEDAVG_' || true); do unset "$knob"; done
export SUBFEDAVG_THREADS=2 SUBFEDAVG_LOG=warn

build_bench() {
  mkdir -p "$build" "$out_dir"
  if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$build" --target bench_round bench_check -j 4; } > "$build/build.log" 2>&1; then
    cat "$build/build.log" >&2
    echo "run.sh: build failed" >&2
    exit 1
  fi
}

workload="" seed=1 seconds=15 trace=0 out="" compare=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --compare) compare=("$2" "$3"); shift 3 ;;
    -h|--help) sed -n '2,14p' "$0"; exit 0 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

build_bench
bench="$build/bench_round"

if [ ${#compare[@]} -eq 2 ]; then
  status=0
  for pair in "0 1" "1 0"; do
    set -- $pair
    base="${compare[$1]}" current="${compare[$2]}"
    manifest="$out_dir/manifest_$1.json"
    "$bench" --manifest --benchmark "$root/BENCHMARK.json" --results "$base" > "$manifest"
    echo "== baseline $base, current $current"
    "$build/subfed/bench_check" --baseline "$manifest" --current "$current" || status=1
  done
  exit $status
fi

if [ -n "$workload" ]; then
  exec "$bench" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
    --out-dir "$out_dir"
fi

# Every workload, each in its own process so peak RSS, the device plan cache
# and the thread pool never carry over from one to the next.
status=0
parts=()
for w in $("$bench" --list); do
  rm -f "$out_dir/$w.json"
  "$bench" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
    --out-dir "$out_dir" || status=1
  [ -f "$out_dir/$w.json" ] && parts+=("$out_dir/$w.json")
done
out="${out:-$out_dir/results.json}"
{
  echo "["
  for i in "${!parts[@]}"; do
    [ "$i" -gt 0 ] && echo ","
    cat "${parts[$i]}"
  done
  echo "]"
} > "$out"
echo "results: $out"
exit $status
