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

echo "== go test -race -count=2 (chaos + cluster recovery + concurrency harness + heat-tier index, repeated)"
go test -race -count=2 ./internal/cluster/... ./internal/chaos/... ./internal/clustertest/... ./internal/core/... ./internal/bitmap/...

# Coverage floor: internal/cluster (admission, scheduling, recovery) must not
# fall below the gate set when admission control landed. Raise the floor when
# coverage improves; never lower it to make a PR pass.
cluster_cov_floor=83.0
echo "== coverage floor (internal/cluster >= ${cluster_cov_floor}%)"
cov=$(go test -cover ./internal/cluster | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
if [ -z "$cov" ]; then
	echo "coverage: could not parse 'go test -cover ./internal/cluster' output" >&2
	exit 1
fi
if awk "BEGIN{exit !($cov < $cluster_cov_floor)}"; then
	echo "coverage: internal/cluster at ${cov}%, below the ${cluster_cov_floor}% floor" >&2
	exit 1
fi
echo "coverage: internal/cluster at ${cov}%"

# Coverage floor: internal/resultcache (semantic result cache — normalization
# hits, subsumption, TTL, quotas, invalidation) gates at the level set when
# the cache landed. Raise when coverage improves; never lower.
rescache_cov_floor=90.0
echo "== coverage floor (internal/resultcache >= ${rescache_cov_floor}%)"
rcov=$(go test -cover ./internal/resultcache | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
if [ -z "$rcov" ]; then
	echo "coverage: could not parse 'go test -cover ./internal/resultcache' output" >&2
	exit 1
fi
if awk "BEGIN{exit !($rcov < $rescache_cov_floor)}"; then
	echo "coverage: internal/resultcache at ${rcov}%, below the ${rescache_cov_floor}% floor" >&2
	exit 1
fi
echo "coverage: internal/resultcache at ${rcov}%"

# Coverage floor: internal/events (the flight recorder ring — emission,
# canonical ordering, drop accounting) gates at the level set when the
# recorder landed. Raise when coverage improves; never lower.
events_cov_floor=92.0
echo "== coverage floor (internal/events >= ${events_cov_floor}%)"
ecov=$(go test -cover ./internal/events | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
if [ -z "$ecov" ]; then
	echo "coverage: could not parse 'go test -cover ./internal/events' output" >&2
	exit 1
fi
if awk "BEGIN{exit !($ecov < $events_cov_floor)}"; then
	echo "coverage: internal/events at ${ecov}%, below the ${events_cov_floor}% floor" >&2
	exit 1
fi
echo "coverage: internal/events at ${ecov}%"

# Coverage floor: internal/exec (expression evaluation, aggregation cells,
# partitioned hash join/agg and the grace-hash spill path) gates at the
# level set when the shuffle landed. Raise when coverage improves; never lower.
exec_cov_floor=85.0
echo "== coverage floor (internal/exec >= ${exec_cov_floor}%)"
xcov=$(go test -cover ./internal/exec | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
if [ -z "$xcov" ]; then
	echo "coverage: could not parse 'go test -cover ./internal/exec' output" >&2
	exit 1
fi
if awk "BEGIN{exit !($xcov < $exec_cov_floor)}"; then
	echo "coverage: internal/exec at ${xcov}%, below the ${exec_cov_floor}% floor" >&2
	exit 1
fi
echo "coverage: internal/exec at ${xcov}%"

# Coverage floor: internal/core (SmartIndex — heat sketch, hot/cold tiers,
# striped promotion, derivation, budget eviction) gates at the level set when
# heat-aware budgeting landed. Raise when coverage improves; never lower.
core_cov_floor=85.0
echo "== coverage floor (internal/core >= ${core_cov_floor}%)"
ccov=$(go test -cover ./internal/core | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
if [ -z "$ccov" ]; then
	echo "coverage: could not parse 'go test -cover ./internal/core' output" >&2
	exit 1
fi
if awk "BEGIN{exit !($ccov < $core_cov_floor)}"; then
	echo "coverage: internal/core at ${ccov}%, below the ${core_cov_floor}% floor" >&2
	exit 1
fi
echo "coverage: internal/core at ${ccov}%"

echo "== fuzz smoke (FuzzParse, FuzzDecodeBatch, FuzzWireStream; 10s each)"
go test -fuzz=FuzzParse -fuzztime=10s -run='^$' ./internal/sqlparser
go test -fuzz=FuzzDecodeBatch -fuzztime=10s -run='^$' ./internal/types
go test -fuzz=FuzzWireStream -fuzztime=10s -run='^$' ./internal/transport

echo "== telemetry smoke (exporter on an ephemeral port)"
go run ./cmd/feisu -smoke-telemetry -rows 256 -parts 2

echo "== chaos smoke (seeded fault injection, seed 1)"
go run ./cmd/feisu-bench -exp chaos -seed 1 -short -scale small

echo "== parscan smoke (intra-task parallel scan, 2x scan-time floor at 4 workers)"
go run ./cmd/feisu-bench -exp parscan -short -scale small

echo "== admission smoke (bounded tail latency under offered overload)"
go run ./cmd/feisu-bench -exp admission -short -scale small

echo "== rescache smoke (semantic result cache, off vs on)"
go run ./cmd/feisu-bench -exp rescache -short -scale small

echo "== flightrec smoke (journaled query chain + observability endpoints)"
go run ./cmd/feisu -smoke-flightrec -rows 256 -parts 2

echo "== flightrec overhead smoke (recorder off vs on)"
go run ./cmd/feisu-bench -exp flightrec -short -scale small

echo "== shuffle smoke (repartition vs broadcast equivalence + journaled shuffle chain)"
go run ./cmd/feisu -smoke-shuffle

echo "== shuffle bench smoke (broadcast vs repartition vs spill across build scales)"
go run ./cmd/feisu-bench -exp shuffle -short -scale small

# The TCP wire transport must be semantically invisible: the transport
# conformance battery runs against both fabrics inside the transport package,
# and the root differential/equivalence suites rerun with every cluster RPC
# crossing real loopback sockets.
echo "== transport conformance (sim + tcp fabrics, race)"
go test -race -count=1 ./internal/transport/

echo "== differential + equivalence suites over TCP (FEISU_TRANSPORT=tcp)"
FEISU_TRANSPORT=tcp go test -count=1 -run 'TestTCPTransport|TestDifferential|TestClusterMatchesSingleNode|TestEquivalenceUnderChaos|TestMetamorphic' .

echo "== multi-process smoke (1 master / 2 stems / 4 leaves as OS processes on loopback)"
go run ./cmd/feisu-node -smoke

echo "== wire bench smoke (scale-out over real sockets vs sim prediction)"
go run ./cmd/feisu-bench -exp wire -short -scale small

echo "== zipfidx smoke (skew-aware SmartIndex, heat-aware vs uniform LRU)"
go run ./cmd/feisu-bench -exp zipfidx -short -scale small

echo "verify: OK"
