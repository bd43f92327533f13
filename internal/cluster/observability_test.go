package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
)

// TestTraceSpans asserts the tentpole wiring: a traced query produces a
// span tree with master, stem and leaf spans carrying non-zero simulated
// time, and the leaf scan span reports its row counters.
func TestTraceSpans(t *testing.T) {
	tc := newTestCluster(t, 4, 2, 4, nil)
	_, stats := tc.query("SELECT COUNT(*) FROM logs WHERE v > 2", QueryOptions{Trace: true})

	root := stats.Trace
	if root == nil {
		t.Fatal("QueryStats.Trace is nil with Trace option set")
	}
	if root.Name() != "master/query" {
		t.Fatalf("root span = %q", root.Name())
	}
	if root.Sim() <= 0 {
		t.Error("master span has zero simulated time")
	}
	stem := root.Find("stem/")
	if stem == nil {
		t.Fatal("no stem span in the trace")
	}
	if stem.Sim() <= 0 {
		t.Error("stem span has zero simulated time")
	}
	leaves := root.FindAll("leaf/")
	if len(leaves) != 4 {
		t.Fatalf("got %d leaf spans, want 4 (one per partition)", len(leaves))
	}
	for _, l := range leaves {
		if l.Sim() <= 0 {
			t.Errorf("leaf span %s has zero simulated time", l.Attr("partition"))
		}
		scan := l.Find("scan")
		if scan == nil {
			t.Fatalf("leaf span %s has no scan child", l.Attr("partition"))
		}
		if scan.CountValue("rows.scanned") != testRowsPerPartition {
			t.Errorf("scan rows.scanned = %d, want %d",
				scan.CountValue("rows.scanned"), testRowsPerPartition)
		}
		if l.Find("read:") == nil {
			t.Errorf("leaf span %s has no device read breakdown", l.Attr("partition"))
		}
	}
	if root.Find("master/execute") == nil || root.Find("master/finalize") == nil {
		t.Error("master stage spans missing")
	}
}

// TestUntracedQueryHasNoTrace ensures tracing is strictly opt-in.
func TestUntracedQueryHasNoTrace(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 2, nil)
	_, stats := tc.query("SELECT COUNT(*) FROM logs", QueryOptions{})
	if stats.Trace != nil {
		t.Fatal("untraced query carries a trace")
	}
}

// TestExplainStatement: EXPLAIN describes the plan without executing.
func TestExplainStatement(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 2, nil)
	res, stats := tc.query("EXPLAIN SELECT COUNT(*) FROM logs WHERE v > 2", QueryOptions{})
	if stats.Tasks != 0 {
		t.Fatalf("EXPLAIN executed %d tasks", stats.Tasks)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("columns = %v", res.Columns)
	}
	text := flattenRows(res)
	for _, want := range []string{"fact table: logs", "v > 2 [indexable]"} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN output missing %q:\n%s", want, text)
		}
	}
}

// TestExplainAnalyze: EXPLAIN ANALYZE executes and renders the span tree.
func TestExplainAnalyze(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 2, nil)
	res, stats := tc.query("EXPLAIN ANALYZE SELECT COUNT(*) FROM logs WHERE v > 2", QueryOptions{})
	if stats.Tasks == 0 {
		t.Fatal("EXPLAIN ANALYZE did not execute the query")
	}
	if stats.Trace == nil {
		t.Fatal("EXPLAIN ANALYZE did not record a trace")
	}
	text := flattenRows(res)
	for _, want := range []string{"execution trace:", "master/query", "stem/", "leaf/", "rows.scanned"} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, text)
		}
	}
}

// TestExplainSharesFingerprint: the EXPLAIN/ANALYZE prefix must not change
// the statement's canonical form, so analyzed queries share task-reuse
// fingerprints with their plain counterparts.
func TestExplainSharesFingerprint(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 2, nil)
	res, _ := tc.query("EXPLAIN SELECT COUNT(*) FROM logs WHERE v > 2", QueryOptions{})
	if !strings.Contains(flattenRows(res), "query: SELECT COUNT(*) FROM logs WHERE (logs.v > 2)") {
		t.Errorf("fingerprint should not carry the EXPLAIN prefix:\n%s", flattenRows(res))
	}
}

func flattenRows(res *exec.Result) string {
	var sb strings.Builder
	for _, row := range res.Rows {
		sb.WriteString(row[0].S)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestChargeRemoteReadIndexOnlyNotBilled is the billing bugfix's contract:
// a task scheduled off its data holder is billed network transfer only for
// bytes read from the holder's store — an in-memory SmartIndex answer (or
// a local SSD cache hit) moves nothing.
func TestChargeRemoteReadIndexOnlyNotBilled(t *testing.T) {
	model := sim.DefaultCostModel()
	topo := transport.NewTopology()
	fabric := transport.NewFabric(topo, transport.Options{})
	hdfs := storage.NewHDFS("hdfs", model)
	router := storage.NewRouter(storage.NewMemFS("", model))
	router.Register(hdfs)
	topo.Place("holder", "r0", "dc1")
	topo.Place("far", "r1", "dc1")
	hdfs.AddNode("holder", "r0")
	ctx := context.Background()
	if err := router.WriteFile(ctx, "/hdfs/x/p0", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	leaf := &LeafServer{Name: "far", Fabric: fabric, Router: router, Model: model}

	// Index-hit-only task: every byte came from this leaf's own memory.
	bill := sim.NewBill()
	bill.ChargeRead(model, sim.DeviceMemory, 4096)
	leaf.chargeRemoteRead(ctx, bill, "/hdfs/x/p0")
	if n := bill.Bytes(sim.DeviceNetwork); n != 0 {
		t.Fatalf("in-memory index bytes billed as network transfer: %d bytes", n)
	}

	// SSD *cache* hits on an HDD-resident partition stay local too.
	bill.ChargeRead(model, sim.DeviceSSD, 2048)
	leaf.chargeRemoteRead(ctx, bill, "/hdfs/x/p0")
	if n := bill.Bytes(sim.DeviceNetwork); n != 0 {
		t.Fatalf("SSD cache bytes billed as network transfer: %d bytes", n)
	}

	// Bytes read from the holder's HDD store do cross the network.
	bill.ChargeRead(model, sim.DeviceHDD, 1000)
	leaf.chargeRemoteRead(ctx, bill, "/hdfs/x/p0")
	if n := bill.Bytes(sim.DeviceNetwork); n != 1000 {
		t.Fatalf("network bytes = %d, want 1000 (the HDD bytes)", n)
	}

	// A holder reads locally and is never billed.
	local := &LeafServer{Name: "holder", Fabric: fabric, Router: router, Model: model}
	bill2 := sim.NewBill()
	bill2.ChargeRead(model, sim.DeviceHDD, 1000)
	local.chargeRemoteRead(ctx, bill2, "/hdfs/x/p0")
	if n := bill2.Bytes(sim.DeviceNetwork); n != 0 {
		t.Fatalf("local read billed as network transfer: %d bytes", n)
	}
}

// TestStartStopRace exercises the lifecycle guard: concurrent Start/Stop
// from multiple goroutines, including double Stop, must be safe (run with
// -race) and must not panic on a closed channel.
func TestStartStopRace(t *testing.T) {
	tc := newTestCluster(t, 1, 1, 1, nil)
	leaf, stem := tc.leaves[0], tc.stems[0]
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				leaf.Start("master", time.Hour)
				stem.Start("master", time.Hour)
				leaf.Stop()
				stem.Stop()
				leaf.Stop() // double Stop must be a no-op
			}
		}()
	}
	wg.Wait()
	// A final Start/Stop cycle still works after the churn.
	leaf.Start("master", time.Hour)
	leaf.Stop()
	stem.Stop()
}

// TestLivenessWindowBoundary pins the inclusive boundary: a worker whose
// last heartbeat is exactly LivenessWindow old is still alive; one
// nanosecond older is dead.
func TestLivenessWindowBoundary(t *testing.T) {
	m := NewClusterManager(time.Minute)
	base := time.Now()
	now := base
	m.Now = func() time.Time { return now }
	m.Heartbeat("leaf0", KindLeaf, 0)

	now = base.Add(time.Minute)
	if !m.Alive("leaf0") {
		t.Fatal("worker at exactly LivenessWindow must still be alive")
	}
	if got := m.AliveWorkers(KindLeaf); len(got) != 1 {
		t.Fatalf("AliveWorkers at boundary = %v", got)
	}
	now = base.Add(time.Minute + time.Nanosecond)
	if m.Alive("leaf0") {
		t.Fatal("worker past LivenessWindow must be dead")
	}
	if got := m.AliveWorkers(KindLeaf); len(got) != 0 {
		t.Fatalf("AliveWorkers past boundary = %v", got)
	}
}

// TestConcurrentTracedQueriesOneLeaf drives concurrent traced queries
// through a single leaf whose reader is wrapped with the SSD cache, so the
// SmartIndex and cache singleflight paths race under -race.
func TestConcurrentTracedQueriesOneLeaf(t *testing.T) {
	tc := newTestCluster(t, 1, 0, 2, nil)
	tc.leaves[0].Reader = cache.NewReader(exec.NewStoreReader(tc.router), cache.Options{
		CapacityBytes: 1 << 20,
		Prefixes:      []string{"/hdfs/"},
		Model:         sim.DefaultCostModel(),
	})
	queries := []string{
		"SELECT COUNT(*) FROM logs WHERE v > 2",
		"SELECT COUNT(*) FROM logs WHERE v = 1",
		"SELECT SUM(v) FROM logs WHERE v > 4",
		"SELECT COUNT(*) FROM logs WHERE v > 2", // identical: exercises task reuse
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, stats, err := tc.master.Submit(context.Background(), queries[i%len(queries)], QueryOptions{Trace: true})
			if err != nil {
				errs <- err
				return
			}
			if stats.Trace == nil {
				errs <- fmt.Errorf("query %d: no trace recorded", i)
				return
			}
			// A query whose tasks were all reused from a concurrent
			// identical query executed nothing itself, so its trace
			// legitimately has no leaf spans.
			if stats.ReusedTasks < stats.Tasks && stats.Trace.Find("leaf/") == nil {
				errs <- fmt.Errorf("query %d: trace missing leaf span (%d/%d tasks reused)",
					i, stats.ReusedTasks, stats.Tasks)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent traced query failed: %v", err)
	}
}
