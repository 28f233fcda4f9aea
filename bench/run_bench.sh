#!/usr/bin/env bash
# Runs the throughput microbenchmarks and records the result as
# BENCH_throughput.json at the repo root, so the perf trajectory is tracked
# PR over PR. Rows that record peak_rss_mb are measured in a process of
# their own (see below).
#
# Usage: bench/run_bench.sh [build_dir] [extra benchmark args...]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift || true

if [[ ! -x "$build_dir/bench_throughput" ]]; then
  echo "bench_throughput not found in $build_dir; configuring with -DMOBIPRIV_BENCH=ON" >&2
  cmake -B "$build_dir" -S "$repo_root" -DMOBIPRIV_BENCH=ON
  cmake --build "$build_dir" -j "$(nproc)" --target bench_throughput
fi

# Pass 1 runs every selected row in one process. Pass 2 re-runs each row
# that records peak_rss_mb alone, in a fresh process: a peak reset cannot
# drop below the heap earlier rows left resident, so only a fresh process
# reads the row's own residency. scripts/merge_bench_json.py swaps those
# rows into the pass-1 JSON.
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

"$build_dir/bench_throughput" \
  --benchmark_out="$scratch/all.json" \
  --benchmark_out_format=json \
  "$@"

merge="$repo_root/scripts/merge_bench_json.py"
rows=()
while IFS= read -r filter; do
  row="$scratch/row${#rows[@]}.json"
  echo "Re-running $filter in a fresh process" >&2
  "$build_dir/bench_throughput" "$@" \
    --benchmark_filter="$filter" \
    --benchmark_out="$row" \
    --benchmark_out_format=json > /dev/null
  rows+=("$row")
done < <(python3 "$merge" rss-rows "$scratch/all.json")

python3 "$merge" merge "$scratch/all.json" "${rows[@]}" \
  --out "$repo_root/BENCH_throughput.json"

echo "Wrote $repo_root/BENCH_throughput.json"
