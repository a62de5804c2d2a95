#!/usr/bin/env bash
# Prints the shipped rust lines of every crate, then their total.
#
# A file under a crate's `src/` ships its lines up to the first one that
# holds `#[cfg(test)]`, and a `tests.rs` (a test module in a file of its
# own) ships nothing: the rule `tests/layering.rs::shipped` applies.
#
# Usage: tools/loc.sh [REV]    (from any directory; reads the working
#                               tree, or REV's committed files through
#                               `git archive`, counted by this rule)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -gt 1 ]; then
    echo "usage: tools/loc.sh [REV]" >&2
    exit 2
fi
if [ $# -eq 1 ]; then
    tree=$(mktemp -d)
    trap 'rm -rf "$tree"' EXIT
    git archive "$1" -- crates | tar -x -C "$tree"
    cd "$tree"
fi

total=0
for src in crates/*/src crates/shims/*/src; do
    lines=$(find "$src" -name '*.rs' ! -name tests.rs -print0 |
        xargs -0 awk 'FNR == 1 { on = 1 } index($0, "#[cfg(test)]") { on = 0 } on { n++ } END { print n + 0 }' |
        awk '{ n += $1 } END { print n + 0 }')
    printf '%6d  %s\n' "$lines" "${src%/src}"
    total=$((total + lines))
done
printf '%6d  total\n' "$total"
