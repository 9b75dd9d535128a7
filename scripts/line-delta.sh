#!/usr/bin/env bash
# Line delta of non-test Rust between two commits.
#
#   scripts/line-delta.sh BASE [HEAD]
#
# Counts lines added and removed in `.rs` files outside any `tests/`
# directory and outside `vendor/`, with each file cut at its first
# `#[cfg(test)]` in column 0 (so the in-file test module does not count,
# but an indented item-level `#[cfg(test)]` accessor inside non-test code
# does not hide the code below it). HEAD defaults to `HEAD`. Prints one line per changed file, then the totals:
#
#   added N removed M net K
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
    echo "usage: $0 BASE [HEAD]" >&2
    exit 2
fi
base=$1
head=${2:-HEAD}
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || {
    echo "line-delta: unknown commit $base" >&2
    exit 2
}
git rev-parse --verify --quiet "$head^{commit}" >/dev/null || {
    echo "line-delta: unknown commit $head" >&2
    exit 2
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The non-test part of FILE at COMMIT (empty if the file does not exist).
non_test() {
    # awk stops reading at the cut, so git may die of SIGPIPE: ignore it.
    { git show "$1:$2" 2>/dev/null || true; } |
        awk '/^#\[cfg\(test\)\]/ { exit } { print }'
}

added=0
removed=0
while IFS= read -r path; do
    case "/$path" in
        */tests/* | /vendor/*) continue ;;
    esac
    non_test "$base" "$path" >"$tmp/old"
    non_test "$head" "$path" >"$tmp/new"
    counts=$(diff --old-line-format='-
' --new-line-format='+
' --unchanged-line-format='' "$tmp/old" "$tmp/new" || true)
    a=$(grep -c '^+' <<<"$counts" || true)
    r=$(grep -c '^-' <<<"$counts" || true)
    if ((a + r > 0)); then
        printf '%6s %6s  %s\n' "+$a" "-$r" "$path"
    fi
    added=$((added + a))
    removed=$((removed + r))
done < <(git diff --name-only --no-renames "$base" "$head" -- '*.rs')

echo "added $added removed $removed net $((added - removed))"
