#!/usr/bin/env bash
# Net line delta of src/ against a base ref, counted two ways: all
# lines, and lines that are neither blank nor comments. A comment line
# is one whose first non-blank characters are `//` (src/ has no block
# comments).
#
#   tools/src_delta.sh <base-ref>
#
# Compares <base-ref> with the working tree. New files count once git
# tracks them (`git add -N` or `git add`).
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi

cd "$(dirname "$0")/.."
git diff --no-ext-diff --no-color --unified=0 "$1" -- src/ | awk '
  /^diff --git / { in_hunk = 0; next }
  /^@@ / { in_hunk = 1; next }
  !in_hunk { next }
  /^[+-]/ {
    sign = substr($0, 1, 1)
    text = substr($0, 2)
    all[sign]++
    if (text !~ /^[ \t]*$/ && text !~ /^[ \t]*\/\//) code[sign]++
  }
  END {
    printf "all lines:                   %+d (+%d -%d)\n",
        all["+"] - all["-"], all["+"], all["-"]
    printf "without blanks and comments: %+d (+%d -%d)\n",
        code["+"] - code["-"], code["+"], code["-"]
  }'
