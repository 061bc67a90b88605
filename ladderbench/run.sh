#!/usr/bin/env bash
# Builds the ladder benchmark from source (once per checkout) and runs one
# workload. Run from the repository root:
#
#   bash ladderbench/run.sh --workload serve-zipf-100k --seed 1 \
#       --seconds 10 --trace 0
#
# The build goes to $CARGO_TARGET_DIR (default .bench_build) and its log to
# stderr; scratch files live in a per-run directory there and are removed
# on exit. Traced runs leave their Chrome trace in <build>/traces/. The last
# line of stdout is the result object (see ladder.cpp).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
  /*) ;;
  *) build="$root/$build" ;;
esac
bin="$build/ladder/ladder"

if [[ ! -f "$build/ladder/CMakeCache.txt" ]]; then
  cmake -S "$root/ladderbench" -B "$build/ladder" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build/ladder" --target ladder -j 4 >&2

mkdir -p "$build/work"
work="$(mktemp -d "$build/work/run.XXXXXX")"
trap 'rm -rf "$work"' EXIT

"$bin" --workdir "$work" --trace-dir "$build/traces" "$@"
