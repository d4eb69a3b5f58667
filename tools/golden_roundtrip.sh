#!/usr/bin/env bash
# CLI round trip: the client side and the miner side of FRAPP draw one
# perturbation stream. `frapp generate` -> `frapp perturb --seed 7` ->
# `frapp mine --in` over a seeded census table must print, byte for byte,
# the report of a live `frapp mine --run-pipeline --in <same csv> --seed 7`
# with the same design flags: perturbing the file and mining it is mining
# with the same seed.
#
# Usage: tools/golden_roundtrip.sh [build-dir] [mechanism]
#   build-dir  default: <repo-root>/build
#   mechanism  det-gd|ran-gd (ran-gd runs with --alpha-frac 0.5);
#              default: both

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
frapp="$build_dir/frapp_cli"

if [[ ! -x "$frapp" ]]; then
  echo "FATAL: $frapp not built (cmake --build $build_dir --target frapp_cli)" >&2
  exit 1
fi

mechanisms=(det-gd ran-gd)
if [[ $# -ge 2 ]]; then
  mechanisms=("$2")
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
"$frapp" generate --dataset census --rows 16384 --seed 5 \
  --out "$work/census.csv" >/dev/null

failures=0
for mech in "${mechanisms[@]}"; do
  design=()
  if [[ "$mech" == ran-gd ]]; then
    design=(--alpha-frac 0.5)
  fi
  "$frapp" perturb --dataset census "${design[@]}" --in "$work/census.csv" \
    --out "$work/perturbed.csv" --seed 7 >/dev/null
  "$frapp" mine --dataset census "${design[@]}" --in "$work/perturbed.csv" \
    --minsup 0.02 --top 20 >"$work/file.txt"
  "$frapp" mine --dataset census --mechanism "$mech" "${design[@]}" \
    --run-pipeline --in "$work/census.csv" --seed 7 --minsup 0.02 --top 20 \
    >"$work/live.txt" 2>/dev/null
  if ! diff -u "$work/live.txt" "$work/file.txt"; then
    echo "FAIL: $mech perturb -> mine --in differs from mine --run-pipeline" >&2
    failures=$((failures + 1))
  else
    echo "OK: $mech perturb -> mine --in matches mine --run-pipeline"
  fi
done

[[ "$failures" -eq 0 ]]
