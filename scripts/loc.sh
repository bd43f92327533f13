#!/bin/sh
# loc.sh — non-test Go lines per package and for the root module: the number
# ROADMAP gates quote ("internal/cluster non-test LoC down"). Plain `wc -l`
# over *.go minus *_test.go; bench/ is its own module and is not counted.
# Then the knob counts simplicity gates quote: the fields of the
# user-settable config structs, public and internal (one per name, so
# `A, B int` counts two; an empty `struct{}` counts zero) and the number of
# per-query feisu.With* options.
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

# fields FILE TYPE LABEL prints the number of fields of struct TYPE in FILE.
fields() {
	awk -v t="$2" -v label="$3" '
		$0 ~ "^type " t " struct ?\\{" {
			if ($0 ~ /\{\}/) { printf "%7d  %s fields\n", 0, label; exit }
			depth = 1
			next
		}
		depth == 0 { next }
		{
			line = $0
			sub(/\/\/.*/, "", line)
			gsub(/`[^`]*`/, "", line)
			if (depth == 1 && line ~ /^\t[A-Za-z_]/) {
				split(line, w, /[ \t]+/)
				n++
				for (i = 2; w[i] ~ /,$/; i++) n++
			}
			depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
			if (depth == 0) { printf "%7d  %s fields\n", n, label; exit }
		}' "$1"
}

echo "knobs:"
fields feisu.go Config feisu.Config
fields internal/cluster/master.go MasterConfig cluster.MasterConfig
fields internal/cluster/cluster.go QueryOptions cluster.QueryOptions
fields internal/plan/shuffle.go Options plan.Options
fields internal/transport/transport.go Options transport.Options
fields internal/transport/tcp.go TCPOptions transport.TCPOptions
fields internal/cluster/admission.go AdmissionConfig cluster.AdmissionConfig
fields internal/core/smartindex.go Options core.Options
fields internal/cache/cache.go Options cache.Options
fields internal/resultcache/cache.go Config resultcache.Config
printf "%7d  feisu.With* options\n" "$(cat $(ls *.go | grep -v '_test\.go$') | grep -c '^func With[A-Z]')"
