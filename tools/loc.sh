#!/usr/bin/env bash
# Engine line counts, one definition for every budget that cites them:
#
#   tools/loc.sh [DIR]      (default: crates/engine/src)
#
# For each `*.rs` file of DIR, two numbers:
#   wc     every line (`wc -l`);
#   code   the lines above the file's unit-test module that are neither
#          blank nor a `//` comment (`//`, `///` and `//!` alike). The test
#          module starts at the attribute lines (`#[cfg(test)]`, ...) that
#          open `mod tests`; a file without one counts to its end.
# and both totals on the last line.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
dir="${1:-crates/engine/src}"

printf '%8s %8s  %s\n' wc code file
for f in "$dir"/*.rs; do
    wc=$(wc -l < "$f")
    code=$(awk '
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        /^[[:space:]]*#\[/ { attrs++; next }
        /^[[:space:]]*(pub(\([a-z]+\))? )?mod tests([^[:alnum:]_]|$)/ { attrs = 0; exit }
        { n += attrs + 1; attrs = 0 }
        END { print n + attrs }' "$f")
    printf '%8d %8d  %s\n' "$wc" "$code" "$f"
done | awk '{ print; wc += $1; code += $2 } END { printf "%8d %8d  total\n", wc, code }'
