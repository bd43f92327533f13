package cluster

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/resultcache"
	"repro/internal/sqlparser"
)

// newCachedCluster builds the standard test deployment with a semantic
// result cache in front of admission.
func newCachedCluster(t *testing.T) *testCluster {
	t.Helper()
	return newTestCluster(t, 2, 0, 2, func(cfg *MasterConfig) {
		cfg.ResultCache = resultcache.New(resultcache.Config{CapacityBytes: 1 << 20})
		cfg.CacheAffinity = true
	})
}

// TestMasterResultCacheOutcomes drives the three lookup outcomes through the
// full submit path: first execution misses, the identical query (different
// literal spelling normalizes to the same shape) hits, and a narrower range
// is answered by subsumption — all with identical rows and zero tasks on the
// reuse paths.
func TestMasterResultCacheOutcomes(t *testing.T) {
	tc := newCachedCluster(t)

	cold, stats := tc.query("SELECT id, v FROM logs WHERE id > 150", QueryOptions{})
	if stats.ResultCache != "miss" || stats.Tasks == 0 {
		t.Fatalf("cold run: outcome=%q tasks=%d", stats.ResultCache, stats.Tasks)
	}

	hit, stats := tc.query("SELECT id, v FROM logs WHERE id > 150", QueryOptions{})
	if stats.ResultCache != "hit" || stats.Tasks != 0 {
		t.Fatalf("repeat: outcome=%q tasks=%d, want hit with zero tasks", stats.ResultCache, stats.Tasks)
	}
	if len(hit.Rows) != len(cold.Rows) {
		t.Fatalf("hit rows = %d, cold rows = %d", len(hit.Rows), len(cold.Rows))
	}

	sub, stats := tc.query("SELECT id, v FROM logs WHERE id > 180", QueryOptions{})
	if stats.ResultCache != "subsumed" || stats.Tasks != 0 {
		t.Fatalf("narrower: outcome=%q tasks=%d, want subsumed with zero tasks", stats.ResultCache, stats.Tasks)
	}
	for _, row := range sub.Rows {
		if row[0].I <= 180 {
			t.Fatalf("subsumed result leaked row %v outside the narrower predicate", row)
		}
	}

	// Bypass: no lookup, no store, no outcome reported.
	_, stats = tc.query("SELECT id, v FROM logs WHERE id > 150", QueryOptions{DisableResultCache: true})
	if stats.ResultCache != "" || stats.Tasks == 0 {
		t.Fatalf("bypass: outcome=%q tasks=%d, want no outcome and real execution", stats.ResultCache, stats.Tasks)
	}

	snap := tc.master.ResultCache().Snapshot()
	if snap.Hits != 1 || snap.SubsumedHits != 1 {
		t.Errorf("cache counters = %+v, want 1 hit and 1 subsumed", snap)
	}
}

// TestMasterResultCacheTraceSpan checks both trace shapes: a traced hit is a
// result-cache span carrying the row count instead of an execute tree, and a
// traced miss records the result-cache status beside the admission span.
func TestMasterResultCacheTraceSpan(t *testing.T) {
	tc := newCachedCluster(t)

	_, stats := tc.query("SELECT COUNT(*) FROM logs", QueryOptions{Trace: true})
	if stats.Trace == nil {
		t.Fatal("traced miss has no span tree")
	}
	missText := stats.Trace.Render()
	if !strings.Contains(missText, "result-cache") || !strings.Contains(missText, "status=miss") {
		t.Fatalf("miss trace lacks the result-cache status span:\n%s", missText)
	}

	_, stats = tc.query("SELECT COUNT(*) FROM logs", QueryOptions{Trace: true})
	if stats.ResultCache != "hit" || stats.Trace == nil {
		t.Fatalf("repeat: outcome=%q trace=%v", stats.ResultCache, stats.Trace)
	}
	hitText := stats.Trace.Render()
	if !strings.Contains(hitText, "result-cache") || !strings.Contains(hitText, "status=hit") {
		t.Fatalf("hit trace lacks the result-cache span:\n%s", hitText)
	}
	if strings.Contains(hitText, "execute") {
		t.Fatalf("hit trace still shows an execute stage:\n%s", hitText)
	}
}

// TestMasterResultCacheInvalidation covers both ways a table changes:
// re-registering it (the ingest path) and re-registering one partition with
// its Gen cleared (a file rewritten in place) must each retire cached
// entries for the table.
func TestMasterResultCacheInvalidation(t *testing.T) {
	tc := newCachedCluster(t)
	ctx := t.Context()

	const q = "SELECT COUNT(*) FROM logs"
	tc.query(q, QueryOptions{})
	if _, stats := tc.query(q, QueryOptions{}); stats.ResultCache != "hit" {
		t.Fatalf("warm outcome = %q", stats.ResultCache)
	}

	meta, err := tc.master.Jobs.Lookup("logs")
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.master.RegisterTable(ctx, meta); err != nil {
		t.Fatal(err)
	}
	if _, stats := tc.query(q, QueryOptions{}); stats.ResultCache != "miss" {
		t.Fatalf("post-register outcome = %q, want miss", stats.ResultCache)
	}

	if _, stats := tc.query(q, QueryOptions{}); stats.ResultCache != "hit" {
		t.Fatal("cache did not rewarm")
	}
	rewritten := *meta
	rewritten.Partitions = slices.Clone(meta.Partitions)
	rewritten.Partitions[0].Gen = 0
	if err := tc.master.RegisterTable(ctx, &rewritten); err != nil {
		t.Fatal(err)
	}
	if _, stats := tc.query(q, QueryOptions{}); stats.ResultCache != "miss" {
		t.Fatal("a rewritten partition left the cached entry alive")
	}

	if tc.master.ResultCache().Snapshot().Invalidations == 0 {
		t.Error("invalidation counter never moved")
	}
}

// TestStoreAfterInvalidateRefused is the stale-hit regression: a statement
// planned before an ingest finishes after it, and its result — correct for
// the snapshot it was planned on — must never be served after the ingest.
// The late entry carries the catalog version it was planned at, so the next
// lookup finds it older and drops it. Without that check the next statement
// would get outcome=hit with the old count until the TTL.
func TestStoreAfterInvalidateRefused(t *testing.T) {
	tc := newCachedCluster(t)
	gate := tc.gateLeaves("")
	ctx := context.Background()
	const q = "SELECT COUNT(*) FROM logs"

	inflight := tc.submitAsync(ctx, q, QueryOptions{})
	tc.waitFlights(1, 0)
	tc.dropLastPartition("logs")
	close(gate)
	if got := (<-inflight).count(t); got != 200 {
		t.Fatalf("in-flight statement = %d, want its own snapshot's 200", got)
	}
	res, stats := tc.query(q, QueryOptions{})
	if got := res.Rows[0][0].I; got != 100 || stats.ResultCache != "miss" {
		t.Errorf("statement after the ingest = %d (outcome %s), want a fresh 100", got, stats.ResultCache)
	}
	if snap := tc.master.ResultCache().Snapshot(); snap.Invalidations != 1 || snap.Hits != 0 {
		t.Errorf("cache after the late store: %+v, want the late entry dropped unserved", snap)
	}
}

// TestStoreSurvivesOtherTablesIngest: the refusal is per table. An ingest
// into a table the statement does not read leaves its store alone.
func TestStoreSurvivesOtherTablesIngest(t *testing.T) {
	tc := newCachedCluster(t)
	gate := tc.gateLeaves("")
	ctx := context.Background()
	const q = "SELECT COUNT(*) FROM logs"

	inflight := tc.submitAsync(ctx, q, QueryOptions{})
	tc.waitFlights(1, 0)
	tc.addUsersDim(t) // registers "names"
	close(gate)
	if got := (<-inflight).count(t); got != 200 {
		t.Fatalf("count = %d", got)
	}
	if _, stats := tc.query(q, QueryOptions{}); stats.ResultCache != "hit" {
		t.Errorf("outcome after an unrelated ingest = %q, want hit", stats.ResultCache)
	}
}

// TestMasterResultCacheInvalidatesBuildTable: a repartitioned join reads its
// build side too; re-registering that table must drop the cached join.
func TestMasterResultCacheInvalidatesBuildTable(t *testing.T) {
	sc := newShuffleCluster(t, 4, 2, 4, 2, func(cfg *MasterConfig) {
		cfg.Planner = repartitionOpts()
		cfg.ResultCache = resultcache.New(resultcache.Config{CapacityBytes: 1 << 20})
	})
	const q = "SELECT COUNT(*) FROM orders JOIN users ON orders.uid = users.uid"
	before, _ := sc.query(q, QueryOptions{})
	meta, err := sc.master.Jobs.Lookup("users")
	if err != nil {
		t.Fatal(err)
	}
	half := *meta
	half.Partitions = meta.Partitions[:1]
	if err := sc.master.RegisterTable(context.Background(), &half); err != nil {
		t.Fatal(err)
	}
	after, stats := sc.query(q, QueryOptions{})
	if stats.ResultCache != "miss" || after.Rows[0][0].I >= before.Rows[0][0].I {
		t.Errorf("join after halving users = %v (outcome %s), cached %v", after.Rows, stats.ResultCache, before.Rows)
	}
}

// TestMasterResultCacheSkipsPartial ensures degraded results never populate
// the cache: a partial result (one partition unreadable on every leaf,
// PartialResults on) must not be served to the next caller.
func TestMasterResultCacheSkipsPartial(t *testing.T) {
	tc := newTestCluster(t, 2, 0, 4, func(cfg *MasterConfig) {
		cfg.ResultCache = resultcache.New(resultcache.Config{CapacityBytes: 1 << 20})
		cfg.MaxTaskRetries = 1
	})
	close(tc.gateLeaves("/hdfs/logs/p1"))

	res, stats, err := tc.master.Submit(t.Context(), "SELECT COUNT(*) FROM logs",
		QueryOptions{PartialResults: true})
	if err != nil {
		t.Fatalf("partial run: %v", err)
	}
	if !res.Partial || stats.TasksFailed != 1 {
		t.Fatalf("partial=%v failed=%d, want one dropped task", res.Partial, stats.TasksFailed)
	}
	if snap := tc.master.ResultCache().Snapshot(); snap.Entries != 0 {
		t.Fatalf("partial result was cached: %+v", snap)
	}
}

// TestTaskKeyCarriesLiteralIdentity pins literal identity at the cluster
// level: literal variants of one shape never share a task key (the retry
// jitter's seed), though they share the fingerprint.
func TestTaskKeyCarriesLiteralIdentity(t *testing.T) {
	tc := newCachedCluster(t)
	p1 := tc.plan("SELECT id FROM logs WHERE v > 3")
	p2 := tc.plan("SELECT id FROM logs WHERE v > 4")
	k1 := p1.Tasks()[0].Key()
	k2 := p2.Tasks()[0].Key()
	if k1 == k2 {
		t.Fatalf("literal variants share task key %q", k1)
	}
	if p1.Fingerprint != p2.Fingerprint {
		t.Fatalf("literal variants should share a fingerprint: %q vs %q", p1.Fingerprint, p2.Fingerprint)
	}
}

// plan parses and plans a statement against the cluster's catalog.
func (tc *testCluster) plan(sql string) *plan.PhysicalPlan {
	tc.t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		tc.t.Fatal(err)
	}
	p, err := plan.Plan(stmt, tc.master.Jobs)
	if err != nil {
		tc.t.Fatal(err)
	}
	return p
}
