#!/bin/sh
# Non-test Go lines per package, bench/ excluded (it is the benchmark, a
# module of its own) — the source of the line-count claims in ROADMAP.md.
# Counts physical lines of every tracked or untracked-but-not-ignored *.go
# file that is not a _test.go file, grouped by directory, total last.
set -eu
cd "$(dirname "$0")/.."
git ls-files --cached --others --exclude-standard -- '*.go' |
    grep -v -e '_test\.go$' -e '^bench/' |
    while read -r f; do
        [ -f "$f" ] && printf '%s %s\n' "$(dirname "$f")" "$(wc -l < "$f")"
    done |
    awk '{ n[$1] += $2; total += $2 }
         END { for (d in n) printf "%7d  %s\n", n[d], d; printf "%7d  total\n", total }' |
    sort -k2
