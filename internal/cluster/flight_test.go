package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/plan"
)

// gatedReader blocks leaf task execution at the first storage read until the
// gate opens, giving tests a deterministic window in which a statement is
// executing but cannot finish. Column calls pass through untouched (they only
// happen after Meta unblocks). Reads of the partition named bad always fail.
type gatedReader struct {
	exec.PartitionReader
	gate chan struct{}
	bad  string
}

func (g *gatedReader) Meta(ctx context.Context, part plan.PartitionMeta) (*colstore.FileMeta, error) {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if part.Path == g.bad {
		return nil, fmt.Errorf("gatedReader: %s is unreadable", part.Path)
	}
	return g.PartitionReader.Meta(ctx, part)
}

// gateLeaves wraps every leaf's reader in one shared gate and returns it.
func (tc *testCluster) gateLeaves(bad string) chan struct{} {
	gate := make(chan struct{})
	for _, l := range tc.leaves {
		l.Reader = &gatedReader{PartitionReader: l.Reader, gate: gate, bad: bad}
	}
	return gate
}

// flights reports how many statements are registered as executing leaders
// and how many followers have joined them in total. Both only grow while the
// gate is shut, so tests poll them as phase barriers.
func (tc *testCluster) flights() (leaders, followers int) {
	j := tc.master.Jobs
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, f := range j.flights {
		followers += f.followers
	}
	return len(j.flights), followers
}

// theFlight returns the one registered flight.
func (tc *testCluster) theFlight() *flight {
	tc.t.Helper()
	j := tc.master.Jobs
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.flights) != 1 {
		tc.t.Fatalf("%d flights registered, want 1", len(j.flights))
	}
	for _, f := range j.flights {
		return f
	}
	return nil
}

func (tc *testCluster) waitFlights(leaders, followers int) {
	tc.t.Helper()
	waitFor(tc.t, func() bool {
		l, f := tc.flights()
		return l == leaders && f == followers
	})
}

func (tc *testCluster) leafTasks() int64 {
	var n int64
	for _, l := range tc.leaves {
		n += l.Tasks.Value()
	}
	return n
}

// submitted is one asynchronous Submit's outcome.
type submitted struct {
	res   *exec.Result
	stats *QueryStats
	err   error
}

// submitAsync submits on its own goroutine; receive the outcome from the
// returned channel.
func (tc *testCluster) submitAsync(ctx context.Context, sql string, opts QueryOptions) <-chan submitted {
	ch := make(chan submitted, 1)
	go func() {
		res, stats, err := tc.master.Submit(ctx, sql, opts)
		ch <- submitted{res, stats, err}
	}()
	return ch
}

// count unwraps a successful single-cell result.
func (s submitted) count(t *testing.T) int64 {
	t.Helper()
	if s.err != nil {
		t.Fatalf("submit: %v", s.err)
	}
	return s.res.Rows[0][0].I
}

// TestResultReuseAcrossConcurrentQueries pins statement-level sharing without
// timing assumptions: the gate holds the leader's tasks in flight, the flight
// table says when the three followers have joined, and only then does the
// gate open. One execution serves all four; with a single execution slot the
// followers could not even have started one.
func TestResultReuseAcrossConcurrentQueries(t *testing.T) {
	tc := newTestCluster(t, 2, 0, 2, func(cfg *MasterConfig) { cfg.MaxConcurrentQueries = 1 })
	gate := tc.gateLeaves("")
	ctx := context.Background()
	const q = "SELECT COUNT(*) FROM logs WHERE v = 7"

	leader := tc.submitAsync(ctx, q, QueryOptions{})
	tc.waitFlights(1, 0)
	var followers []<-chan submitted
	for i := 0; i < 3; i++ {
		followers = append(followers, tc.submitAsync(ctx, q, QueryOptions{}))
	}
	tc.waitFlights(1, 3)
	fl := tc.theFlight()
	if run, queued := tc.master.Admission.Running(), tc.master.Admission.QueueDepth(PriorityInteractive); run != 1 || queued != 0 {
		t.Errorf("admission running=%d queued=%d, want the leader alone: followers take no slot", run, queued)
	}
	close(gate)

	l := <-leader
	if got := l.count(t); got != 20 { // 10 matches per 100-row partition, 2 partitions
		t.Errorf("leader count = %d", got)
	}
	if l.stats.ReusedTasks != 0 || l.stats.Tasks != 2 {
		t.Errorf("leader stats = %+v", l.stats)
	}
	// Three followers cost three copies, not four: the leader makes one for
	// the flight, two followers clone it, and the last one off takes it.
	took := 0
	results := []*exec.Result{l.res}
	for i, ch := range followers {
		f := <-ch
		if got := f.count(t); got != 20 {
			t.Errorf("follower %d count = %d", i, got)
		}
		if f.stats.Tasks != 2 || f.stats.ReusedTasks != f.stats.Tasks {
			t.Errorf("follower %d: tasks=%d reused=%d, want every task reused", i, f.stats.Tasks, f.stats.ReusedTasks)
		}
		if f.res == fl.res {
			took++
		}
		for _, other := range results {
			if f.res == other || &f.res.Rows[0][0] == &other.Rows[0][0] {
				t.Errorf("follower %d shares result memory with another caller", i)
			}
		}
		results = append(results, f.res)
	}
	if took != 1 {
		t.Errorf("%d followers took the flight's own copy, want exactly the last one off", took)
	}
	// The results are independent: scribbling on one leaves the others intact.
	results[1].Rows[0][0].I = -1
	for i, r := range results {
		if i != 1 && r.Rows[0][0].I != 20 {
			t.Errorf("caller %d's count changed to %d when another caller's rows were mutated", i, r.Rows[0][0].I)
		}
	}
	if got := tc.leafTasks(); got != 2 {
		t.Errorf("leaves executed %d tasks, want each partition scanned once", got)
	}
	if got := tc.master.Jobs.Reused.Value(); got != 6 {
		t.Errorf("reused = %d, want 6 (2 tasks x 3 followers)", got)
	}
	if l, f := tc.flights(); l != 0 || f != 0 {
		t.Errorf("flight table not empty after landing: %d leaders, %d followers", l, f)
	}
}

// TestFlightLeaderFails: a leader that returns an error shares nothing — its
// followers execute the statement themselves and succeed.
func TestFlightLeaderFails(t *testing.T) {
	tc := newTestCluster(t, 2, 0, 2, nil)
	gate := tc.gateLeaves("")
	const q = "SELECT COUNT(*) FROM logs"

	lctx, cancel := context.WithCancel(context.Background())
	leader := tc.submitAsync(lctx, q, QueryOptions{})
	tc.waitFlights(1, 0)
	a := tc.submitAsync(context.Background(), q, QueryOptions{})
	b := tc.submitAsync(context.Background(), q, QueryOptions{})
	tc.waitFlights(1, 2)

	cancel()
	if l := <-leader; l.err == nil {
		t.Fatal("cancelled leader returned no error")
	}
	// The flight has landed empty; both followers are now executing on
	// their own, still behind the gate.
	tc.waitFlights(0, 0)
	close(gate)
	for i, ch := range []<-chan submitted{a, b} {
		f := <-ch
		if got := f.count(t); got != 200 {
			t.Errorf("follower %d count = %d", i, got)
		}
		if f.stats.ReusedTasks != 0 {
			t.Errorf("follower %d reports %d reused tasks after executing itself", i, f.stats.ReusedTasks)
		}
	}
	if got := tc.master.Jobs.Reused.Value(); got != 0 {
		t.Errorf("reused = %d, want 0", got)
	}
}

// TestFlightPartialNotShared: a degraded answer is the leader's alone. The
// follower asked for the same statement and gets its own execution (which
// here degrades the same way, but under its own options and accounting).
func TestFlightPartialNotShared(t *testing.T) {
	tc := newTestCluster(t, 2, 0, 4, func(cfg *MasterConfig) { cfg.MaxTaskRetries = 1 })
	gate := tc.gateLeaves("/hdfs/logs/p2")
	ctx := context.Background()
	const q = "SELECT COUNT(*) FROM logs"

	leader := tc.submitAsync(ctx, q, QueryOptions{PartialResults: true})
	tc.waitFlights(1, 0)
	follower := tc.submitAsync(ctx, q, QueryOptions{PartialResults: true})
	tc.waitFlights(1, 1)
	close(gate)

	l, f := <-leader, <-follower
	for name, s := range map[string]submitted{"leader": l, "follower": f} {
		if got := s.count(t); got != 300 || !s.res.Partial || s.stats.TasksFailed != 1 {
			t.Errorf("%s: count=%d partial=%v failed=%d, want 300 from 3 of 4 partitions", name, got, s.res.Partial, s.stats.TasksFailed)
		}
	}
	if f.stats.ReusedTasks != 0 || tc.master.Jobs.Reused.Value() != 0 {
		t.Errorf("partial result was shared: follower reused %d tasks", f.stats.ReusedTasks)
	}
}

// TestFlightFollowerCancelled: a follower's context ends its wait at once —
// the leader is still behind the gate when it returns — and the leader
// finishes unaffected.
func TestFlightFollowerCancelled(t *testing.T) {
	tc := newTestCluster(t, 2, 0, 2, nil)
	gate := tc.gateLeaves("")
	const q = "SELECT COUNT(*) FROM logs"

	leader := tc.submitAsync(context.Background(), q, QueryOptions{})
	tc.waitFlights(1, 0)
	fctx, cancel := context.WithCancel(context.Background())
	follower := tc.submitAsync(fctx, q, QueryOptions{})
	tc.waitFlights(1, 1)
	fl := tc.theFlight()

	cancel()
	if f := <-follower; !errors.Is(f.err, context.Canceled) {
		t.Fatalf("cancelled follower: err = %v", f.err)
	}
	// The follower that gave up is off the flight, so the leader lands with
	// nobody waiting and copies nothing.
	tc.waitFlights(1, 0)
	close(gate)
	if got := (<-leader).count(t); got != 200 {
		t.Errorf("leader count = %d", got)
	}
	if fl.res != nil {
		t.Error("the leader copied its result for a flight nobody was waiting on")
	}
}

// TestFlightNotJoinedAcrossRegisterTable: a statement submitted after
// RegisterTable has returned must see the new catalog, so it may not follow
// a statement planned against the old one — the table's epoch is part of the
// flight key.
func TestFlightNotJoinedAcrossRegisterTable(t *testing.T) {
	tc := newTestCluster(t, 2, 0, 2, nil)
	gate := tc.gateLeaves("")
	ctx := context.Background()
	const q = "SELECT COUNT(*) FROM logs"

	before := tc.submitAsync(ctx, q, QueryOptions{})
	tc.waitFlights(1, 0)
	tc.dropLastPartition("logs")
	after := tc.submitAsync(ctx, q, QueryOptions{})
	tc.waitFlights(2, 0) // its own flight, not a seat on the old one
	close(gate)

	if got := (<-before).count(t); got != 200 {
		t.Errorf("statement planned before the re-register = %d, want its own snapshot's 200", got)
	}
	a := <-after
	if got := a.count(t); got != 100 || a.stats.ReusedTasks != 0 {
		t.Errorf("statement submitted after the re-register = %d (reused %d), want 100 executed by itself", got, a.stats.ReusedTasks)
	}
}

// dropLastPartition re-registers the table with one partition fewer.
func (tc *testCluster) dropLastPartition(table string) {
	tc.t.Helper()
	meta, err := tc.master.Jobs.Lookup(table)
	if err != nil {
		tc.t.Fatal(err)
	}
	shrunk := *meta
	shrunk.Partitions = meta.Partitions[:len(meta.Partitions)-1]
	if err := tc.master.RegisterTable(context.Background(), &shrunk); err != nil {
		tc.t.Fatal(err)
	}
}

// TestFlightTraceShapes: a traced follower gets the cache-hit shape — the
// root and one child naming where the rows came from — and EXPLAIN ANALYZE,
// which exists to show its own execution, never follows.
func TestFlightTraceShapes(t *testing.T) {
	tc := newTestCluster(t, 2, 0, 2, nil)
	gate := tc.gateLeaves("")
	ctx := context.Background()
	const q = "SELECT COUNT(*) FROM logs WHERE v < 3"

	leader := tc.submitAsync(ctx, q, QueryOptions{})
	tc.waitFlights(1, 0)
	follower := tc.submitAsync(ctx, q, QueryOptions{Trace: true})
	tc.waitFlights(1, 1)
	analyze := tc.submitAsync(ctx, "EXPLAIN ANALYZE "+q, QueryOptions{})
	// Followers never enter the progress registry; two entries means the
	// EXPLAIN ANALYZE is executing beside the leader.
	waitFor(t, func() bool { return len(tc.master.ActiveQueries()) == 2 })
	if l, f := tc.flights(); l != 1 || f != 1 {
		t.Fatalf("EXPLAIN ANALYZE touched the flight table: %d leaders, %d followers", l, f)
	}
	close(gate)

	l, f := <-leader, <-follower
	if f.count(t) != 60 || l.count(t) != 60 {
		t.Fatalf("counts: leader %v, follower %v", l.res.Rows, f.res.Rows)
	}
	root := f.stats.Trace
	if root == nil || root.Name() != "master/query" || len(root.Children()) != 1 {
		t.Fatalf("follower trace is not root + one child:\n%s", root.Render())
	}
	child := root.Children()[0]
	if child.Name() != "master/flight" || child.Attr("leader") != l.stats.QueryID || child.CountValue("rows") != 1 {
		t.Errorf("follower trace child = %s leader=%q rows=%d, want master/flight naming %s",
			child.Name(), child.Attr("leader"), child.CountValue("rows"), l.stats.QueryID)
	}
	a := <-analyze
	if a.err != nil {
		t.Fatal(a.err)
	}
	var text strings.Builder
	for _, row := range a.res.Rows {
		text.WriteString(row[0].S + "\n")
	}
	if !strings.Contains(text.String(), "leaf/") || a.stats.ReusedTasks != 0 {
		t.Errorf("EXPLAIN ANALYZE did not execute itself (reused %d):\n%s", a.stats.ReusedTasks, text.String())
	}
}

// TestFlightRepartitioned: a shuffled statement is shared the same way — the
// flight sits above the choice between runAll and runShuffle.
func TestFlightRepartitioned(t *testing.T) {
	opts := plan.Options{GroupShuffleRows: 1, ShufflePartitions: 2}
	tc := newTestCluster(t, 2, 1, 2, func(cfg *MasterConfig) { cfg.Planner = opts })
	gate := tc.gateLeaves("")
	ctx := context.Background()
	const q = "SELECT v, COUNT(*) AS n FROM logs GROUP BY v ORDER BY v"
	stmt, err := parseSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := plan.PlanWith(stmt, tc.master.Jobs, opts); err != nil || p.Shuffle == nil {
		t.Fatalf("statement is not repartitioned (err %v); the test would prove nothing", err)
	}

	leader := tc.submitAsync(ctx, q, QueryOptions{})
	tc.waitFlights(1, 0)
	follower := tc.submitAsync(ctx, q, QueryOptions{})
	tc.waitFlights(1, 1)
	close(gate)

	l, f := <-leader, <-follower
	if l.err != nil || f.err != nil {
		t.Fatalf("leader err %v, follower err %v", l.err, f.err)
	}
	if len(f.res.Rows) != 10 || fmt.Sprint(f.res.Rows) != fmt.Sprint(l.res.Rows) {
		t.Errorf("follower rows %v, leader rows %v", f.res.Rows, l.res.Rows)
	}
	if f.stats.Tasks == 0 || f.stats.ReusedTasks != f.stats.Tasks || f.stats.Tasks != l.stats.Tasks {
		t.Errorf("follower tasks=%d reused=%d, leader tasks=%d", f.stats.Tasks, f.stats.ReusedTasks, l.stats.Tasks)
	}
	if got := tc.leafTasks(); got != int64(l.stats.Tasks) {
		t.Errorf("leaves executed %d tasks, want the leader's %d", got, l.stats.Tasks)
	}
}
