#!/usr/bin/env bash
# Builds the two bench executables and regenerates every table/figure of the
# paper plus the ablation/extension experiments (ufc_bench with no arguments
# runs them all), then the google-benchmark micro suite. CSVs land in the
# directory this script is run from; pass a directory argument to collect
# them elsewhere.
#
# Builds happen in a dedicated build-bench/ directory so this script never
# fights over the generator with a build/ tree configured by another flow
# (e.g. the tier-1 Makefile run). Generator: Ninja when available, otherwise
# whatever CMake picks as its default.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
out_dir="${1:-$PWD}"
build_dir="$repo_root/build-bench"

generator_args=()
if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
  # Fresh configure: prefer Ninja, fall back to the default generator.
  if command -v ninja > /dev/null 2>&1; then
    generator_args=(-G Ninja)
  else
    echo "run_benches: ninja not found; using CMake's default generator" >&2
  fi
fi
# An already-configured build dir keeps its generator; forcing -G onto it
# would fail with a generator mismatch.

cmake -B "$build_dir" -S "$repo_root" "${generator_args[@]}" \
      -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j --target ufc_bench bench_micro_solvers

mkdir -p "$out_dir"
cd "$out_dir"
"$build_dir/bench/ufc_bench"
echo "### bench_micro_solvers"
"$build_dir/bench/bench_micro_solvers"

echo "CSV series written to $out_dir:"
ls -1 ufc_*.csv
