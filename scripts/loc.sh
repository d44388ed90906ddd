#!/bin/sh
# Non-test lines per crate: every line above each file's first `#[cfg(test)]`,
# summed over `crates/*/src`. With arguments, counts those files or
# directories instead (one row each). Run from anywhere inside the repo.
cd "$(dirname "$0")/.." || exit 1
[ $# -eq 0 ] && set -- crates/*/src
for target in "$@"; do
    find "$target" -name '*.rs' -print0 | sort -z | xargs -0 awk -v name="$target" '
        FNR == 1 { test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
        !test { n++ }
        END { printf "%-44s %6d\n", name, n }'
done
