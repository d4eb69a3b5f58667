#!/usr/bin/env bash
# Incremental-mining smoke: the append-twice workflow across real `frapp`
# process invocations, with the count store persisted on disk between them —
# the cross-process half of the bit-identity invariant the ctest grid proves
# in-process.
#
#   1. generate + convert a census table to the binary shard format
#   2. mine it with --count-store (store file created)
#   3. `frapp append` grows the binary table in place (twice: once inside
#      the tail chunk, once crossing a chunk boundary), re-mining with the
#      store after each append — only the delta is perturbed
#   4. every store-backed report is byte-diffed against a from-scratch
#      `--run-pipeline` mine of the same grown file
#
# Usage: tools/incremental_smoke.sh [build-dir] [mechanism]
#   build-dir  default: <repo-root>/build
#   mechanism  det-gd|ran-gd|mask|cp|ind-gd; default: det-gd

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
mech="${2:-det-gd}"
frapp="$build_dir/frapp_cli"

if [[ ! -x "$frapp" ]]; then
  echo "FATAL: $frapp not built (cmake --build $build_dir --target frapp_cli)" >&2
  exit 1
fi

rows=24576        # 3 whole chunks
gen_seed=5
tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT

table="$tmp_dir/census.bin"
store="$tmp_dir/census.frappcnt"

"$frapp" generate --dataset census --rows "$rows" --seed "$gen_seed" \
  --out "$tmp_dir/census.csv" > /dev/null
"$frapp" convert --dataset census --in "$tmp_dir/census.csv" \
  --out "$table" > /dev/null

check_parity() {
  local label="$1"
  "$frapp" mine --dataset census --mechanism "$mech" --in "$table" \
    --count-store "$store" > "$tmp_dir/inc.out" 2> "$tmp_dir/inc.err"
  "$frapp" mine --dataset census --mechanism "$mech" --run-pipeline \
    --in "$table" > "$tmp_dir/full.out" 2> /dev/null
  if ! diff "$tmp_dir/full.out" "$tmp_dir/inc.out"; then
    echo "FAIL: $mech $label store-backed report differs from the pipeline" >&2
    cat "$tmp_dir/inc.err" >&2
    exit 1
  fi
  cat "$tmp_dir/inc.err"
  echo "OK: $mech $label parity holds"
}

echo "=== first mine: store created ==="
check_parity "initial"
if ! grep -q "store created" "$tmp_dir/inc.err"; then
  echo "FAIL: first mine did not create the store" >&2
  exit 1
fi

echo "=== append inside the tail chunk (+5000 rows) ==="
"$frapp" append --dataset census --out "$table" --rows 5000 \
  --gen-seed "$gen_seed"
check_parity "tail-append"
if ! grep -q "store loaded" "$tmp_dir/inc.err"; then
  echo "FAIL: re-mine did not load the saved store" >&2
  exit 1
fi
if ! grep -q "0 delta chunk(s) perturbed" "$tmp_dir/inc.err"; then
  echo "FAIL: a tail-only append should perturb no whole chunks" >&2
  exit 1
fi

echo "=== append crossing a chunk boundary (+10000 rows) ==="
"$frapp" append --dataset census --out "$table" --rows 10000 \
  --gen-seed "$gen_seed"
check_parity "chunk-append"
if ! grep -q "1 delta chunk(s) perturbed" "$tmp_dir/inc.err"; then
  echo "FAIL: expected exactly one newly completed chunk to be perturbed" >&2
  exit 1
fi

echo "incremental smoke passed ($mech): store-backed re-mines are byte-identical"
