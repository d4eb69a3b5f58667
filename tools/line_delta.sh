#!/usr/bin/env bash
# Line delta of the working tree under src/ and tools/ against a base ref:
# lines added, removed and net, as `git diff --numstat` counts them (files
# must be tracked or staged to count). A report for the change log, not a
# gate.
#
# Usage: tools/line_delta.sh [base-ref]   (default: main)

set -euo pipefail

cd "$(dirname "$0")/.."
base="$(git merge-base "${1:-main}" HEAD)"
git diff --numstat "$base" -- src tools | awk '
  $1 != "-" { added += $1; removed += $2 }
  END {
    printf "src/ + tools/ vs %s: +%d -%d net %+d lines\n",
           base, added, removed, added - removed
  }' base="${1:-main}"
