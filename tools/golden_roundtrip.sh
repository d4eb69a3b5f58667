#!/usr/bin/env bash
# CLI round trip: the client side and the miner side of FRAPP draw one
# perturbation stream. `frapp generate` -> `frapp perturb --seed 7` ->
# `frapp mine --in` over a seeded census table must print, byte for byte,
# the report of a live `frapp mine --run-pipeline --in <same csv> --seed 7`
# with the same design flags: perturbing the file and mining it is mining
# with the same seed.
#
# The design flags go to all three commands, so a --rho1/--rho2
# requirement must design the same gamma on both sides. A boolean mechanism
# has no file round trip: `mine --in` must refuse it (exit 2) instead of
# reconstructing the file as DET-GD; and --gamma beside --rho1/--rho2 is
# refused (exit 2) instead of one silently winning.
#
# Usage: tools/golden_roundtrip.sh [build-dir] [case]
#   build-dir  default: <repo-root>/build
#   case       det-gd | ran-gd (--alpha-frac 0.5) |
#              det-gd-rho (--rho1 0.1 --rho2 0.5, gamma 9) |
#              refusals (both refusals above exit 2);
#              default: all four

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
frapp="$build_dir/frapp_cli"

if [[ ! -x "$frapp" ]]; then
  echo "FATAL: $frapp not built (cmake --build $build_dir --target frapp_cli)" >&2
  exit 1
fi

cases=(det-gd ran-gd det-gd-rho refusals)
if [[ $# -ge 2 ]]; then
  cases=("$2")
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
"$frapp" generate --dataset census --rows 16384 --seed 5 \
  --out "$work/census.csv" >/dev/null

failures=0

# expect_usage_error MESSAGE ARG...: `frapp ARG...` must exit 2 and name
# MESSAGE on stderr.
expect_usage_error() {
  local message="$1" status=0
  shift
  "$frapp" "$@" >/dev/null 2>"$work/err" || status=$?
  if [[ "$status" -ne 2 ]] || ! grep -q -- "$message" "$work/err"; then
    echo "FAIL: frapp $* exited $status, want 2 naming $message" >&2
    cat "$work/err" >&2
    failures=$((failures + 1))
  else
    echo "OK: frapp $1 refuses ($message)"
  fi
}

for case in "${cases[@]}"; do
  mech="$case"
  design=()
  case "$case" in
    ran-gd) design=(--alpha-frac 0.5) ;;
    det-gd-rho) mech=det-gd; design=(--rho1 0.1 --rho2 0.5) ;;
    refusals)
      expect_usage_error "--mechanism" mine --dataset census --mechanism mask \
        --in "$work/census.csv"
      expect_usage_error "--gamma" mine --dataset census --run-pipeline \
        --in "$work/census.csv" --gamma 19 --rho1 0.1 --rho2 0.5
      continue
      ;;
  esac
  "$frapp" perturb --dataset census "${design[@]}" --in "$work/census.csv" \
    --out "$work/perturbed.csv" --seed 7 >/dev/null
  "$frapp" mine --dataset census "${design[@]}" --in "$work/perturbed.csv" \
    --minsup 0.02 --top 20 >"$work/file.txt"
  "$frapp" mine --dataset census --mechanism "$mech" "${design[@]}" \
    --run-pipeline --in "$work/census.csv" --seed 7 --minsup 0.02 --top 20 \
    >"$work/live.txt" 2>/dev/null
  if ! diff -u "$work/live.txt" "$work/file.txt"; then
    echo "FAIL: $case perturb -> mine --in differs from mine --run-pipeline" >&2
    failures=$((failures + 1))
  else
    echo "OK: $case perturb -> mine --in matches mine --run-pipeline"
  fi
done

[[ "$failures" -eq 0 ]]
