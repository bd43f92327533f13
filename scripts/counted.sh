#!/bin/sh
# counted.sh — the counted trajectory. The benchmark's counted metrics repeat
# to within a fraction of a percent from run to run, unlike its times, so one
# short read of every workload tells whether a change moved them. They are
# kept, with the commit they were read at, in BENCH_counted.json at the root:
# `git log -p BENCH_counted.json` is their history.
#
#   scripts/counted.sh              read once; rewrite the values, keep the bounds
#   scripts/counted.sh --bounds 5   read 5 times; the values are the medians, each
#                                   bound twice the widest relative distance of a
#                                   read from its median, and at least 0.5 %
#   scripts/counted.sh --check      read once; fail when a metric is worse than
#                                   the file's value by more than its bound
#
# A read runs every workload through `bash bench/run.sh` on seed 1 at
# --seconds 2, once untraced (allocs_per_query, alloc_kb_per_query,
# stored_bytes_per_row) and once traced (the per-layer counters and ratios);
# "worse" is BENCHMARK.json's direction. Each run's output is kept in
# .bench_build/counted/. Times never go in the file. A read takes about two
# minutes on a 2-vCPU box.
#
# Every run is pinned to one CPU (taskset -c 0), so the harness runs one
# closed-loop client: two clients interleave differently on every run, and
# which cache entries survive, and so every cache counter, moves with them.
# The file records the commit whose code was read, so a rewrite needs a tree
# whose tracked files, BENCH_counted.json aside, are committed.
set -eu
cd "$(dirname "$0")/.."
mode=${1:-write}
reads=1
case "$mode" in
--bounds) reads=${2:?usage: scripts/counted.sh --bounds <reads>} ;;
--check | write) ;;
*)
	echo "usage: scripts/counted.sh [--check | --bounds <reads>]" >&2
	exit 2
	;;
esac
file=BENCH_counted.json
if [ "$mode" = --check ] && [ ! -f "$file" ]; then
	echo "counted: no $file to check against" >&2
	exit 1
fi
if ! command -v taskset >/dev/null 2>&1; then
	echo "counted: taskset not found; every read runs pinned to one CPU (taskset -c 0, util-linux)" >&2
	exit 1
fi
if [ "$mode" != --check ] && [ -n "$(git status --porcelain --untracked-files=no -- . ":(exclude)$file")" ]; then
	echo "counted: commit the change first; $file records the commit whose code was read" >&2
	exit 1
fi
out=.bench_build/counted
rm -rf "$out"
mkdir -p "$out"
untraced=" allocs_per_query alloc_kb_per_query stored_bytes_per_row "
traced=" exec.column_reads_per_query exec.rows_scanned_per_query cluster.tasks_per_query transport.wire_bytes_per_query core.evictions_per_query events.dropped_per_query cache.miss_ratio core.hit_ratio exec.blocks_pruned_ratio exec.short_circuit_ratio resultcache.hit_ratio resultcache.subsumed_ratio "

i=1
while [ "$i" -le "$reads" ]; do
	for w in scan_hot scan_cold shuffle_tcp dash_ingest; do
		for t in 0 1; do
			f=$out/$w-trace$t-$i.txt
			taskset -c 0 bash bench/run.sh --workload "$w" --seed 1 --seconds 2 --trace "$t" >"$f" 2>&1 ||
				{ echo "counted: $w --trace $t failed, see $f" >&2; exit 1; }
			keep=$untraced
			[ "$t" -eq 1 ] && keep=$traced
			# The table bench prints: "<name> <value> <unit>".
			awk -v w="$w" -v keep="$keep" 'NF == 3 && index(keep, " " $1 " ") { print w "/" $1, $2 }' "$f"
		done
	done >"$out/read-$i.txt"
	echo "counted: read $i/$reads done" >&2
	i=$((i + 1))
done

commit=$(git rev-parse --short HEAD)

# Inputs, in order: BENCHMARK.json (the direction of each metric), the file
# as it stands (values and bounds; absent on a first write), then the reads.
[ -f "$file" ] || : >"$out/none.json"
awk -v mode="$mode" -v reads="$reads" -v commit="$commit" -v file="$file" '
FILENAME == "BENCHMARK.json" {
	if ($1 == "\"name\":") { gsub(/[",]/, "", $2); name = $2 }
	if ($1 == "\"better\":") { gsub(/[",]/, "", $2); better[name] = $2 }
	next
}
FILENAME ~ /\.json$/ { # "<workload>/<metric>": {"value": v, "bound": b, "better": d},
	if ($1 ~ /^"[a-z0-9_]+\/[a-z0-9_.]+":$/) {
		m = $1; gsub(/[":]/, "", m)
		v = $3; gsub(/,/, "", v); b = $5; gsub(/,/, "", b)
		old[m] = v + 0; oldBound[m] = b + 0; listed[++nold] = m
	}
	next
}
{
	r = FILENAME; sub(/.*read-/, "", r); sub(/\.txt$/, "", r)
	x[$1, r + 0] = $2 + 0
	if (!($1 in seen)) { seen[$1] = 1; order[++n] = $1 }
}
function median(m,    i, j, t, a, k) {
	k = 0
	for (i = 1; i <= reads; i++) if ((m, i) in x) a[++k] = x[m, i]
	for (i = 2; i <= k; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
	return k % 2 ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2
}
function dir(m,    metric) { metric = m; sub(/^[^\/]*\//, "", metric); return better[metric] == "higher" ? "higher" : "lower" }
END {
	if (mode == "--check") {
		bad = 0
		printf "%-44s %14s %14s %7s\n", "metric", "file", "now", "bound"
		for (i = 1; i <= nold; i++) {
			m = listed[i]
			if (!((m, 1) in x)) { printf "%-44s %14.4f %14s %7.4f  MISSING\n", m, old[m], "-", oldBound[m]; bad++; continue }
			now = x[m, 1]; lim = old[m] * (dir(m) == "lower" ? 1 + oldBound[m] : 1 - oldBound[m])
			worse = dir(m) == "lower" ? now > lim + 1e-9 : now < lim - 1e-9
			printf "%-44s %14.4f %14.4f %7.4f%s\n", m, old[m], now, oldBound[m], worse ? "  WORSE" : ""
			bad += worse
		}
		if (bad) { printf "counted: %d metric(s) worse than %s allows\n", bad, file > "/dev/stderr"; exit 1 }
		exit 0
	}
	printf "{\n  \"commit\": \"%s\",\n  \"seed\": 1,\n  \"seconds\": 2,\n  \"metrics\": {\n", commit
	for (i = 1; i <= n; i++) {
		m = order[i]; v = median(m); b = (m in oldBound) ? oldBound[m] : 0
		if (reads > 1) {
			dev = 0
			for (r = 1; r <= reads; r++) if ((m, r) in x && v != 0) {
				d = (x[m, r] - v) / v; if (d < 0) d = -d; if (d > dev) dev = d
			}
			b = 2 * dev; if (b < 0.005) b = 0.005
		}
		printf "    \"%s\": {\"value\": %.6g, \"bound\": %.4f, \"better\": \"%s\"}%s\n", m, v, b, dir(m), i < n ? "," : ""
	}
	printf "  }\n}\n"
}' BENCHMARK.json "$([ -f "$file" ] && echo "$file" || echo "$out/none.json")" "$out"/read-*.txt >"$out/result" || status=$?
if [ "$mode" = --check ]; then
	cat "$out/result"
	exit "${status:-0}"
fi
mv "$out/result" "$file"
echo "counted: wrote $file" >&2
