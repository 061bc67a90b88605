#!/usr/bin/env bash
# One command for a full benchmark set, and the regression check between
# two sets. Run from anywhere inside the repository:
#
#   bash ladderbench/run_benchmark.sh --seed S [--trace DIR] [--out FILE]
#   bash ladderbench/run_benchmark.sh --compare A.json B.json
#
# A set runs every workload listed in BENCHMARK.json in its own process,
# first untraced (end-to-end metrics) and then traced (per-layer metrics),
# each for the file's run_seconds, and prints every metric as
# "workload metric value unit". --out writes the set as one JSON object
# (seed, host record, each run's result line and its ungated "ops" line:
# op count, latency tail, throughput); --trace copies each traced run's
# Chrome trace into DIR.
#
# --compare applies the bounds in BENCHMARK.json: on every workload, each
# end-to-end metric of B may be worse than A's by at most bound x A. When
# both sets used the same seed, the exact counts (store bytes, stretch,
# bunch sizes, simulator rounds/messages/words) must also match exactly.
# Exits 1 on any regression, mismatch, or run that was not correct.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
bench="$root/BENCHMARK.json"

usage() {
  sed -n '5,6p' "${BASH_SOURCE[0]}" >&2
  exit 2
}

run_set() {
  local seed="$1" trace_dir="$2" out="$3"
  local seconds set host output result ops path
  seconds="$(jq -r .run_seconds "$bench")"
  set="$(jq -n --argjson seed "$seed" '{seed: $seed, runs: {}}')"
  [[ -n "$trace_dir" ]] && mkdir -p "$trace_dir"
  for w in $(jq -r '.workloads[].name' "$bench"); do
    for trace in 0 1; do
      # A failed check still prints its result line; keep it for the set.
      output="$(bash "$root/ladderbench/run.sh" --workload "$w" \
        --seed "$seed" --seconds "$seconds" --trace "$trace")" || true
      result="$(tail -n 1 <<<"$output")"
      if ! jq -e '.metrics' <<<"$result" >/dev/null 2>&1; then
        echo "run_benchmark: $w (trace $trace) printed no result" >&2
        exit 1
      fi
      host="$(head -n 1 <<<"$output" | jq -c .host)"
      ops="$(jq -c 'select(.info == "ops")' <<<"$output")"
      local kind=untraced
      [[ "$trace" == 1 ]] && kind=traced
      set="$(jq --arg w "$w" --arg k "$kind" --argjson r "$result" \
        --argjson o "$ops" '.runs[$w][$k] = ($r + {ops: $o})' <<<"$set")"
      jq -r --arg w "$w" '.metrics | to_entries[]
        | "\($w)\t\(.key)\t\(.value.value)\t\(.value.unit)"' <<<"$result"
      jq -r --arg w "$w" '"\($w)\tcorrect\t\(.correct)\t(failed \(.failed) of \(.attempted))"' \
        <<<"$result"
      if [[ "$trace" == 1 && -n "$trace_dir" ]]; then
        path="$(jq -r 'select(.info == "trace") | .path' <<<"$output")"
        cp "$path" "$trace_dir/"
      fi
    done
  done
  set="$(jq --argjson h "$host" '.host = $h' <<<"$set")"
  if [[ -n "$out" ]]; then
    printf '%s\n' "$set" >"$out"
  fi
}

compare() {
  local a="$1" b="$2" rows
  rows="$(jq -rn --slurpfile bench "$bench" --slurpfile a "$a" \
    --slurpfile b "$b" '
    ["store_bytes_per_node", "mean_stretch", "sketch.bunch_entries_per_node",
     "congest.rounds", "congest.messages", "congest.words"] as $exact
    | ($a[0].seed == $b[0].seed) as $same_seed
    | $bench[0].workloads[].name as $w
    | ($a[0].runs[$w]) as $ra | ($b[0].runs[$w]) as $rb
    | ( $bench[0].end_to_end[]
        | . as $m
        | $ra.untraced.metrics[$m.name].value as $x
        | $rb.untraced.metrics[$m.name].value as $y
        | (if $m.better == "lower" then ($y - $x) / $x else ($x - $y) / $x end)
            as $worse
        | [$w, $m.name, $x, $y, ($worse * 10000 | round / 100), ($m.bound * 100),
           (if $worse > $m.bound then "REGRESSION"
            elif $same_seed and ($exact | index($m.name)) and $x != $y
              then "MISMATCH"
            else "ok" end)] ),
      ( $exact[] as $name
        | select($same_seed and ($rb.traced.metrics[$name] != null))
        | $ra.traced.metrics[$name].value as $x
        | $rb.traced.metrics[$name].value as $y
        | [$w, $name, $x, $y, 0, 0, (if $x != $y then "MISMATCH" else "ok" end)] ),
      ( [$w, "correct", ($ra.untraced.correct and $ra.traced.correct),
         ($rb.untraced.correct and $rb.traced.correct), 0, 0,
         (if ($rb.untraced.correct and $rb.traced.correct) then "ok"
          else "INCORRECT" end)] )
    | @tsv')"
  printf 'workload\tmetric\tA\tB\tworse_%%\tbound_%%\tverdict\n'
  printf '%s\n' "$rows"
  if grep -qE $'\t(REGRESSION|MISMATCH|INCORRECT)$' <<<"$rows"; then
    echo "run_benchmark: B regresses against A" >&2
    return 1
  fi
}

seed="" trace_dir="" out=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --trace) trace_dir="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --compare)
      [[ $# -eq 3 ]] || usage
      compare "$2" "$3"
      exit $? ;;
    *) usage ;;
  esac
done
[[ -n "$seed" ]] || usage
run_set "$seed" "$trace_dir" "$out"
