#!/bin/sh
# loc.sh — non-test Go lines per package and for the root module: the number
# ROADMAP gates quote ("internal/cluster non-test LoC down"). Plain `wc -l`
# over *.go minus *_test.go; bench/ is its own module and is not counted.
#   scripts/loc.sh [package-dir]    (= make loc)
set -eu
cd "$(dirname "$0")/.."

find "${1:-.}" -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' |
	xargs wc -l | awk '
		$2 == "total" { next }
		{ dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\//, "", dir); n[dir] += $1; all += $1 }
		END {
			for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"
			close("sort -k2")
			printf "%7d  total\n", all
		}'
