#!/usr/bin/env bash
# Golden-report check: `frapp mine` output is a DETERMINISTIC function of
# (dataset, generator seed, mechanism spec, perturb seed, supmin) — same
# bytes on every machine, every run, every thread count. Each mechanism's
# report over the 16384-row seeded census table is byte-diffed against its
# checked-in fixture in tests/golden/; any drift in the perturbation, the
# mining order, or the report formatting fails loudly here. The same report
# must also come out of the count-store engine: `frapp mine --count-store`
# runs twice in a temp dir (first creating the store, then reloading it),
# and both reports are byte-diffed against the same fixture.
#
# Usage: tools/golden_check.sh [build-dir] [mechanism]
#   build-dir  default: <repo-root>/build
#   mechanism  det-gd|ran-gd|mask|cp|ind-gd; default: all five

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
frapp="$build_dir/frapp_cli"

if [[ ! -x "$frapp" ]]; then
  echo "FATAL: $frapp not built (cmake --build $build_dir --target frapp_cli)" >&2
  exit 1
fi

mechanisms=(det-gd ran-gd mask cp ind-gd)
if [[ $# -ge 2 ]]; then
  mechanisms=("$2")
fi

# Fixture parameters — changing ANY of these requires regenerating every
# fixture (the header of each file names the mechanism and supmin).
rows=16384        # 2 whole chunks: chunk-aligned on purpose
gen_seed=5
perturb_seed=7
minsup=0.02
top=20

tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT

# check_report LABEL FIXTURE ENGINE-FLAG...: one mine, byte-diffed.
check_report() {
  local label="$1" golden="$2"
  shift 2
  if ! "$frapp" mine --dataset census --mechanism "$mech" "$@" \
      --rows "$rows" --gen-seed "$gen_seed" --seed "$perturb_seed" \
      --minsup "$minsup" --top "$top" 2>"$tmp_dir/err" \
      | diff -u "$golden" -; then
    echo "FAIL: $mech $label report drifted from $golden" >&2
    cat "$tmp_dir/err" >&2
    failures=$((failures + 1))
  else
    echo "OK: $mech $label matches $(basename "$golden")"
  fi
}

failures=0
for mech in "${mechanisms[@]}"; do
  golden="$repo_root/tests/golden/mine_${mech}_census16k.txt"
  if [[ ! -f "$golden" ]]; then
    echo "FATAL: missing fixture $golden" >&2
    exit 1
  fi
  check_report pipeline "$golden" --run-pipeline
  store="$tmp_dir/${mech}.frappcnt"
  check_report store-create "$golden" --count-store "$store"
  check_report store-reload "$golden" --count-store "$store"
done

if [[ "$failures" -ne 0 ]]; then
  echo "golden check: $failures report(s) drifted" >&2
  exit 1
fi
echo "golden check: all reports byte-identical to fixtures"
