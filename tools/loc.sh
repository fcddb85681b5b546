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
#
# Then the `wc -l` total of the git-tracked `*.rs` files per crate or
# top-level dir (`crates/*`, `vendor/*`, `src`, `tests`, `examples`,
# `benchmark`) and of the whole repo.
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

echo
printf '%8s  %s\n' wc tree
git ls-files -z '*.rs' | xargs -0 wc -l | awk '
    $2 == "total" { next }
    {
        n = split($2, p, "/")
        tree = (p[1] == "crates" || p[1] == "vendor") && n > 2 ? p[1] "/" p[2] : (n > 1 ? p[1] : ".")
        lines[tree] += $1
        all += $1
    }
    END {
        for (t in lines) printf "%8d  %s\n", lines[t], t | "sort -k2"
        close("sort -k2")
        printf "%8d  total\n", all
    }'
