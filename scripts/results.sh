#!/usr/bin/env bash
# Regenerates the raw experiment outputs archived under results/, each
# with the arguments its header records, from the release binaries.
#
#   scripts/results.sh               rewrite results/<binary>.txt
#   scripts/results.sh --check DIR   write into DIR and diff against
#                                    results/; exits 1 on any difference
#
# Every run bypasses the result cache, so the files show what the
# current model prints, not what an older cache entry holds.
set -euo pipefail
cd "$(dirname "$0")/.."

# One line per archived file: the binary, then its arguments.
RUNS=(
  "exp_chemistry"
  "exp_deployment --hours 4"
  "exp_opex --hours 8"
  "exp_outage"
  "exp_prediction"
  "exp_sharing"
  "fig01_provisioning"
  "fig03_efficiency"
  "fig04_cost"
  "fig05_discharge"
  "fig06_assignment"
  "fig07_architecture --hours 3"
  "fig12_schemes --hours 8"
  "fig13_ratio --hours 8"
  "fig14_capacity --hours 8"
  "fig15_tco"
)

out=results
check=""
if [ "${1:-}" = --check ]; then
  check="${2:?usage: scripts/results.sh [--check DIR]}"
  out="$check"
  mkdir -p "$out"
fi

cargo build -q --release -p heb-bench
for run in "${RUNS[@]}"; do
  read -r bin args <<< "$run"
  # shellcheck disable=SC2086 # the recorded arguments split on spaces
  "target/release/$bin" $args --no-cache --jobs 2 > "$out/$bin.txt"
done

if [ -n "$check" ]; then
  status=0
  for run in "${RUNS[@]}"; do
    bin="${run%% *}"
    diff -u "results/$bin.txt" "$out/$bin.txt" || status=1
  done
  if [ "$status" != 0 ]; then
    echo "results: the archive differs from what the binaries print; rerun scripts/results.sh" >&2
    exit 1
  fi
  echo "results: all ${#RUNS[@]} archived outputs match the binaries"
fi
