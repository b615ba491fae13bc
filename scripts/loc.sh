#!/usr/bin/env bash
# Net code lines of Rust sources — the count the simplicity entries in
# CHANGES.md report:
#
#   scripts/loc.sh <file-or-dir>...
#
# Each file is cut at its first top-level `#[cfg(test)]` (the unit-test
# module), then blank lines and `//` lines (`///` and `//!` docs
# included) are dropped. A directory counts every `.rs` file under it.
# Prints `<lines> <file>` per file, then `<lines> total`.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    echo "usage: scripts/loc.sh <file-or-dir>..." >&2
    exit 2
fi

files=()
for arg in "$@"; do
    if [ -d "$arg" ]; then
        while IFS= read -r f; do files+=("$f"); done < <(find "$arg" -name '*.rs' | sort)
    elif [ -f "$arg" ]; then
        files+=("$arg")
    else
        echo "loc: no such file or directory: $arg" >&2
        exit 2
    fi
done

awk '
    FNR == 1 { cut = 0 }
    /^#\[cfg\(test\)\]/ { cut = 1 }
    cut || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { n[FILENAME]++; total++ }
    END {
        for (i = 1; i < ARGC; i++) printf "%d %s\n", n[ARGV[i]], ARGV[i]
        printf "%d total\n", total
    }' "${files[@]}"
