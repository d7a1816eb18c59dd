#!/usr/bin/env bash
# Non-test lines of Rust under crates/, per crate and in total: every .rs
# file outside tests/ and benches/ directories, counted up to its first
# `#[cfg(test)]` line. Run from anywhere: `scripts/loc.sh`.
set -euo pipefail
cd "$(dirname "$0")/../crates"
find . -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' | sort |
  while read -r f; do
    crate=${f#./}
    crate=${crate%%/*}
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    echo "$crate $n"
  done |
  awk '{ sum[$1] += $2; total += $2 }
       END { for (c in sum) printf "%-8s %6d\n", c, sum[c] | "sort"; close("sort");
             printf "%-8s %6d\n", "total", total }'
