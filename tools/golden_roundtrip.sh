#!/usr/bin/env bash
# Golden CLI round trip: `frapp generate` -> `frapp perturb` -> `frapp mine
# --in` over a seeded census table. The perturbed CSV is a deterministic
# function of (rows, generator seed, design, --seed), and the mined report a
# deterministic function of that CSV, so the CSV's checksum followed by the
# report is byte-diffed against tests/golden/perturb_mine_<mechanism>.txt.
#
# Usage: tools/golden_roundtrip.sh [build-dir] [mechanism]
#   build-dir  default: <repo-root>/build
#   mechanism  det-gd|ran-gd (ran-gd perturbs with --alpha-frac 0.5);
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
  golden="$repo_root/tests/golden/perturb_mine_${mech}.txt"
  design=()
  if [[ "$mech" == ran-gd ]]; then
    design=(--alpha-frac 0.5)
  fi
  "$frapp" perturb --dataset census "${design[@]}" --in "$work/census.csv" \
    --out "$work/perturbed.csv" --seed 7 >/dev/null
  if ! { cksum <"$work/perturbed.csv"
         "$frapp" mine --dataset census "${design[@]}" \
           --in "$work/perturbed.csv" --minsup 0.02 --top 20; } \
      | diff -u "$golden" -; then
    echo "FAIL: $mech round trip drifted from $golden" >&2
    failures=$((failures + 1))
  else
    echo "OK: $mech matches $(basename "$golden")"
  fi
done

[[ "$failures" -eq 0 ]]
