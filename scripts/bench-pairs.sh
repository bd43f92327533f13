#!/bin/sh
# bench-pairs.sh — alternating base/HEAD runs of one benchmark workload, the
# comparison bench/README.md "Rules for later issues" asks of every claim.
#
#   scripts/bench-pairs.sh <workload> [pairs=10] [seed=1]
#   BASE=<commit> scripts/bench-pairs.sh scan_hot 10 2     (BASE defaults to HEAD~1)
#
# The base commit is exported (git archive) into .bench_build/base-<sha>/ and
# builds there; "head" is the working tree as it stands, uncommitted edits
# included. Each pair runs `bash bench/run.sh --workload W --seed S --trace 0`
# once per side, the side that goes first alternating, and every run's output
# is kept in .bench_build/pairs/. Printed per end-to-end metric: both medians,
# both inter-quartile ranges, the ratio of medians and how many pairs head
# won (direction from BENCHMARK.json; ties count for neither). Nothing is
# written outside the tree and nothing under bench/ is touched.
set -eu
cd "$(dirname "$0")/.."
root=$PWD
workload=${1:?usage: scripts/bench-pairs.sh <workload> [pairs=10] [seed=1]}
pairs=${2:-10}
seed=${3:-1}
sha=$(git rev-parse --short "${BASE:-HEAD~1}")
base=$root/.bench_build/base-$sha
out=$root/.bench_build/pairs/$workload-seed$seed-$sha
mkdir -p "$out"
if [ ! -f "$base/bench/run.sh" ]; then
	mkdir -p "$base"
	git archive "$sha" | tar -x -C "$base"
fi

run() { # run <side> <dir> <pair>
	(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$seed" --trace 0) >"$out/$1-$3.txt" 2>&1 ||
		{ echo "bench-pairs: $1 run $3 failed, see $out/$1-$3.txt" >&2; exit 1; }
	grep -q '"failed":0,' "$out/$1-$3.txt" || echo "bench-pairs: $1 run $3 has failed operations" >&2
}

i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$base" "$i" && run head "$root" "$i"
	else
		run head "$root" "$i" && run base "$base" "$i"
	fi
	echo "pair $i/$pairs: qps base $(awk '$1 == "qps" { print $2 }' "$out/base-$i.txt") head $(awk '$1 == "qps" { print $2 }' "$out/head-$i.txt")" >&2
	i=$((i + 1))
done

# One line per run and metric: "<side> <pair> <metric> <value>", from the
# table bench prints ("<name> <value> <unit>").
for f in "$out"/base-*.txt "$out"/head-*.txt; do
	side=$(basename "$f" .txt)
	awk -v side="${side%-*}" -v pair="${side#*-}" 'NF == 3 && $1 ~ /^[a-z0-9_]+$/ && $2 ~ /^[0-9.eE+-]+$/ { print side, pair, $1, $2 }' "$f"
done >"$out/runs.txt"

echo "# $workload seed $seed: base $sha vs working tree, $pairs alternating pairs (median [p25..p75])"
awk -v pairs="$pairs" '
FNR == NR { # BENCHMARK.json: which way is better
	if ($1 == "\"name\":") { gsub(/[",]/, "", $2); name = $2 }
	if ($1 == "\"better\":") { gsub(/[",]/, "", $2); better[name] = $2 }
	next
}
{ v[$1, $3, $2] = $4; if (!($3 in seen)) { seen[$3] = 1; order[++n] = $3 } }
function quantile(side, m, q,    i, j, t, a, k, pos, lo) {
	k = 0
	for (i = 1; i <= pairs; i++) if ((side, m, i) in v) a[++k] = v[side, m, i] + 0
	for (i = 2; i <= k; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
	if (k == 0) return 0
	pos = 1 + (k - 1) * q; lo = int(pos)
	return lo >= k ? a[k] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
}
END {
	printf "%-22s %34s %34s %7s %6s\n", "metric", "base", "head", "ratio", "wins"
	for (x = 1; x <= n; x++) {
		m = order[x]; wins = 0
		for (i = 1; i <= pairs; i++) {
			b = v["base", m, i] + 0; h = v["head", m, i] + 0
			if (better[m] == "higher" ? h > b : h < b) wins++
		}
		bm = quantile("base", m, 0.5); hm = quantile("head", m, 0.5)
		printf "%-22s %12.4f [%9.4f..%9.4f] %12.4f [%9.4f..%9.4f] %7.3f %3d/%d\n", m,
			bm, quantile("base", m, 0.25), quantile("base", m, 0.75),
			hm, quantile("head", m, 0.25), quantile("head", m, 0.75), (bm ? hm / bm : 0), wins, pairs
	}
}' BENCHMARK.json "$out/runs.txt"
