#!/usr/bin/env bash
# Diffs the paper-style tables the rcsim, fault, service and synthesis
# benches print against the goldens in this directory.  The report/trace
# path lines are left out; everything else on stdout is deterministic and
# must match byte for byte.  Also diffs the stdout of the examples that run
# rcsim with metric probes on, and the Chrome trace bench_fig8_overhead
# writes.
#
#   bench/golden/check.sh <build-dir>            # diff, exit 1 on mismatch
#   bench/golden/check.sh <build-dir> --update   # rewrite the goldens
set -euo pipefail
build=${1:?usage: check.sh <build-dir> [--update]}
golden=$(cd "$(dirname "$0")" && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0
for b in fig8_overhead fft_section5 global_schedule fault_campaign \
         degradation service_load service_faults fig6_area fig7_speed \
         encoding_ablation policy_ablation arbiter_scaling; do
  RCARB_BENCH_DIR="$out" "$build/bench/bench_$b" --benchmark_filter=NONE |
    grep -v -e '^bench report: ' -e '^chrome trace: ' >"$out/bench_$b.txt"
  if [[ "${2:-}" == --update ]]; then
    cp "$out/bench_$b.txt" "$golden/bench_$b.txt"
  elif ! diff -u "$golden/bench_$b.txt" "$out/bench_$b.txt"; then
    echo "bench_$b: output differs from its golden" >&2
    status=1
  fi
done
# Compares $out/$1 with the golden of the same name (or rewrites it).
compare() {
  if [[ "${2:-}" == --update ]]; then
    cp "$out/$1" "$golden/$1"
  elif ! diff -u "$golden/$1" "$out/$1"; then
    echo "$1: output differs from its golden" >&2
    status=1
  fi
}
compare TRACE_fig8_overhead.json "${2:-}"
for e in fft_flow image_pipeline channel_sharing quickstart; do
  "$build/examples/$e" >"$out/example_$e.txt"
  compare "example_$e.txt" "${2:-}"
done
exit $status
