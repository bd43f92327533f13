#!/bin/sh
# verify.sh — the repo's pre-merge gate, run locally or from `make verify`.
#
# Order matters: the cheap static checks fail fast before the race suite
# (the slow step; the experiments package re-runs every figure under it).
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./...  (tier-1)"
go test ./...

# bench/ is its own module (replace repro => ../), so tier-1 does not notice
# when a transport/exec signature the benchmark calls changes.
echo "== benchmark module (go -C bench vet + test)"
go -C bench vet ./...
go -C bench test ./...

echo "== go test -race ./..."
go test -race ./...

echo "== go test -race -count=2 (chaos + cluster recovery + concurrency harness, repeated)"
go test -race -count=2 ./internal/cluster/... ./internal/chaos/... ./internal/clustertest/...

# A seeded test that depends on goroutine interleaving is not seeded: the
# chaos plane keys storage faults by extent, so twenty runs draw one schedule.
# Nor is a golden trace a golden if its task spans list in scheduling order,
# if a batch's reply transfer lands on whichever task the leaf ran last, or
# if a shuffle's per-reducer spans depend on which map task finished first,
# nor if a LIMIT batch's skipped tasks depend on the order its leaf ran it in.
echo "== chaos equivalence + multi-task, LIMIT and shuffle trace order x20 (same seeds, same schedule, same trace, every run)"
go test -count=20 -run 'TestEquivalenceUnderChaos|TestExplainAnalyzeMultiTaskGolden|TestExplainAnalyzeLimitGolden|TestExplainAnalyzeShuffleGolden' .

# The fold and the statement flight are contracts about concurrency: the
# answer may not depend on which leaf or reducer replied first, nor a
# follower on when it joined, nor on how late a timed-out task's backup ran —
# the fold inputs include a failed task in the middle of one leaf's batch —
# nor on a shuffle message arriving twice — nor a bill on the order a leaf ran
# its batch in — nor a LIMIT's rows on which tasks a leaf skipped. Twenty
# raced runs each.
echo "== flight, fold, LIMIT prefix, timeout backup, duplicate shuffle, store-after-invalidate and billing x20 (race)"
go test -race -count=20 -run 'TestResultReuseAcrossConcurrentQueries|TestFlight|TestRetriedTaskFolds|TestLimitAnswerIsOrdinalPrefix|TestReduceFoldsInReducerOrder|TestShuffleDuplicate|TestStragglerTimeoutBackup|TestMapTaskTimeoutBackup|TestStore|TestReplyBilledOncePerBatch|TestShuffleMessageBilledOnce' ./internal/cluster/

# Coverage floors, set when each package's subsystem landed (cluster:
# admission, scheduling, recovery; resultcache: normalization, subsumption,
# versions, invalidation; events: the flight-recorder ring; exec: expressions,
# aggregation, partitioned join/agg, spill; core: SmartIndex derivation,
# budget eviction, TTL, pins). Raise a floor when coverage improves; never
# lower one to make a PR pass.
cov_floor() {
	echo "== coverage floor ($1 >= $2%)"
	cov=$(go test -cover "./$1" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
	if [ -z "$cov" ]; then
		echo "coverage: could not parse 'go test -cover ./$1' output" >&2
		exit 1
	fi
	if awk "BEGIN{exit !($cov < $2)}"; then
		echo "coverage: $1 at ${cov}%, below the $2% floor" >&2
		exit 1
	fi
	echo "coverage: $1 at ${cov}%"
}
cov_floor internal/cluster 92.2
cov_floor internal/resultcache 90.0
cov_floor internal/events 92.0
cov_floor internal/exec 85.0
cov_floor internal/core 85.0

echo "== fuzz smoke (FuzzParse, FuzzDecodeBatch, FuzzWireStream, FuzzDecodePlan, FuzzDecodeShuffle, FuzzDecodePayload, FuzzParseFooter, FuzzDecodeColumn, FuzzFlattenJSON, FuzzInt64RoundTrip, FuzzLRU; 10s each)"
go test -fuzz=FuzzParse -fuzztime=10s -run='^$' ./internal/sqlparser
go test -fuzz=FuzzDecodeBatch -fuzztime=10s -run='^$' ./internal/types
go test -fuzz=FuzzWireStream -fuzztime=10s -run='^$' ./internal/transport
go test -fuzz=FuzzDecodePlan -fuzztime=10s -run='^$' ./internal/plan
go test -fuzz=FuzzDecodeShuffle -fuzztime=10s -run='^$' ./internal/cluster
go test -fuzz=FuzzDecodePayload -fuzztime=10s -run='^$' ./internal/cluster
go test -fuzz=FuzzParseFooter -fuzztime=10s -run='^$' ./internal/colstore
go test -fuzz=FuzzDecodeColumn -fuzztime=10s -run='^$' ./internal/colstore
go test -fuzz=FuzzFlattenJSON -fuzztime=10s -run='^$' ./internal/colstore
go test -fuzz=FuzzInt64RoundTrip -fuzztime=10s -run='^$' ./internal/encoding
go test -fuzz=FuzzLRU -fuzztime=10s -run='^$' ./internal/lru

# The TCP wire transport must be semantically invisible: the transport
# conformance battery runs against both fabrics inside the transport package,
# and the root differential/equivalence suites rerun with every cluster RPC
# crossing real loopback sockets, as do the freshness tests: a partition's
# generation must reach the leaf inside the task it runs. Reply strings are
# cut from wire blobs there, so the result cache's chaos suite reruns too.
echo "== transport conformance (sim + tcp fabrics, race)"
go test -race -count=1 ./internal/transport/

echo "== differential + equivalence + freshness suites over TCP (FEISU_TRANSPORT=tcp)"
FEISU_TRANSPORT=tcp go test -count=1 -run 'TestTCPTransport|TestDifferential|TestClusterMatchesSingleNode|TestEquivalenceUnderChaos|TestMetamorphic|TestRewriteRegisteredInCatalogOnly|TestReloadSameTableInvalidatesIndex|TestIngestRestartInvalidatesStaleReads|TestResultCacheInvalidatedByIngest|TestResultCacheEquivalenceUnderChaos' .

echo "== multi-process cluster (1 master / 2 stems / 4 leaves as OS processes on loopback)"
go test -count=1 -run TestMultiProcessCluster ./cmd/feisu-node

# A doc may only name a BENCH_*.json that is in the tree, an -exp id that the
# figures binary lists, and a flight-recorder event kind (`family.action` in
# backticks, family one of internal/events') that internal/events defines.
echo "== doc references (BENCH_*.json files, -exp ids, event kinds)"
docs="README.md DESIGN.md EXPERIMENTS.md docs/*.md .claude/skills/verify/SKILL.md"
ids=$(go run ./cmd/feisu-figures -list | awk '!/^#/ {print $1}')
for f in $(grep -oh 'BENCH_[A-Za-z0-9_]*\.json' $docs | sort -u); do
	[ -e "$f" ] || { echo "docs name $f, which is not in the tree" >&2; exit 1; }
done
for id in $(grep -oh -- '-exp [a-z0-9]*' $docs | awk '{print $2}' | sort -u); do
	echo "$ids" | grep -qx "$id" || { echo "docs name -exp $id, which feisu-figures -list does not print" >&2; exit 1; }
done
kinds=$(sed -n 's/.* Kind = "\([a-z.-]*\)".*/\1/p' internal/events/events.go)
families=$(echo "$kinds" | sed 's/\..*//' | sort -u | paste -sd '|' -)
for kind in $(grep -ohE "\`($families)\.[a-z-]+\`" $docs | tr -d '`' | grep -v '\.go$' | sort -u); do
	echo "$kinds" | grep -qx "$kind" || { echo "docs name event kind $kind, which internal/events does not define" >&2; exit 1; }
done

echo "verify: OK"
