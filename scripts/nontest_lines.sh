#!/bin/sh
# Prints the non-test line count of each crate under crates/ (all of src/).
# Rule: a file counts up to (not including) its first column-0 `#[cfg(test)]`
# or `#[cfg(all(test, ...))]` line, or in full if it has neither.
# Usage: scripts/nontest_lines.sh [crate ...]   (run from the repo root)
cd "$(dirname "$0")/.." || exit 1
[ $# -gt 0 ] || set -- $(ls crates)
for c in "$@"; do
    find "crates/$c/src" -name '*.rs' | sort | xargs awk '
        FNR == 1 { on = 1 }
        /^#\[cfg\((test|all\(test,.*)\)\]/ { on = 0 }
        on { n++ }
        END { printf "%s %d\n", c, n }' c="$c"
done
