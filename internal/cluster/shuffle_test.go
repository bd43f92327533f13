package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// shuffleCluster is a miniature deployment with TWO cataloged tables — a
// fact ("orders") and a join table ("users") — plus the raw rows kept
// around so tests can brute-force the expected join output.
type shuffleCluster struct {
	t      *testing.T
	fabric *transport.Fabric
	router *storage.Router
	master *Master
	leaves []*LeafServer
	stems  []*StemServer
	rec    *events.Recorder

	orders []orderRow
	users  []userRow
}

type orderRow struct{ id, uid, amt int64 }
type userRow struct {
	uid    int64
	name   string
	region int64
}

const shufRowsPerPart = 120

// newShuffleCluster builds the deployment. orders has factParts partitions
// (id sequential; uid = id*7 mod 2N so roughly half the orders dangle);
// users has dimParts partitions with dense uids 0..N-1.
func newShuffleCluster(t *testing.T, nLeaves, nStems, factParts, dimParts int, cfgMut func(*MasterConfig)) *shuffleCluster {
	t.Helper()
	model := sim.DefaultCostModel()
	topo := transport.NewTopology()
	fabric := transport.NewFabric(topo, transport.Options{})
	hdfs := storage.NewHDFS("hdfs", model)
	router := storage.NewRouter(storage.NewMemFS("", model))
	router.Register(hdfs)
	sc := &shuffleCluster{t: t, fabric: fabric, router: router, rec: events.New(4096)}

	for i := 0; i < nLeaves; i++ {
		name := fmt.Sprintf("leaf%d", i)
		rack := fmt.Sprintf("r%d", i/2)
		topo.Place(name, rack, "dc1")
		hdfs.AddNode(name, rack)
	}
	topo.Place("master", "r-master", "dc1")
	for i := 0; i < nStems; i++ {
		topo.Place(fmt.Sprintf("stem%d", i), fmt.Sprintf("r%d", i/2), "dc1")
	}

	nUsers := int64(dimParts * shufRowsPerPart)
	userSchema := types.MustSchema(
		types.Field{Name: "uid", Type: types.Int64},
		types.Field{Name: "name", Type: types.String},
		types.Field{Name: "region", Type: types.Int64},
	)
	orderSchema := types.MustSchema(
		types.Field{Name: "id", Type: types.Int64},
		types.Field{Name: "uid", Type: types.Int64},
		types.Field{Name: "amt", Type: types.Int64},
	)
	ctx := context.Background()

	userMeta := &plan.TableMeta{Name: "users", Schema: userSchema}
	for p := 0; p < dimParts; p++ {
		w := colstore.NewWriter(userSchema, 32)
		for r := 0; r < shufRowsPerPart; r++ {
			uid := int64(p*shufRowsPerPart + r)
			u := userRow{uid: uid, name: fmt.Sprintf("user-%d", uid), region: uid % 5}
			sc.users = append(sc.users, u)
			if err := w.Append(types.Row{types.NewInt(u.uid), types.NewString(u.name), types.NewInt(u.region)}); err != nil {
				t.Fatal(err)
			}
		}
		data, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		path := fmt.Sprintf("/hdfs/users/p%d", p)
		if err := router.WriteFile(ctx, path, data); err != nil {
			t.Fatal(err)
		}
		userMeta.Partitions = append(userMeta.Partitions, plan.PartitionMeta{
			Path: path, Rows: shufRowsPerPart, Bytes: int64(len(data)),
		})
	}

	orderMeta := &plan.TableMeta{Name: "orders", Schema: orderSchema}
	for p := 0; p < factParts; p++ {
		w := colstore.NewWriter(orderSchema, 32)
		for r := 0; r < shufRowsPerPart; r++ {
			id := int64(p*shufRowsPerPart + r)
			o := orderRow{id: id, uid: (id * 7) % (2 * nUsers), amt: id % 100}
			sc.orders = append(sc.orders, o)
			if err := w.Append(types.Row{types.NewInt(o.id), types.NewInt(o.uid), types.NewInt(o.amt)}); err != nil {
				t.Fatal(err)
			}
		}
		data, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		path := fmt.Sprintf("/hdfs/orders/p%d", p)
		if err := router.WriteFile(ctx, path, data); err != nil {
			t.Fatal(err)
		}
		orderMeta.Partitions = append(orderMeta.Partitions, plan.PartitionMeta{
			Path: path, Rows: shufRowsPerPart, Bytes: int64(len(data)),
		})
	}

	cfg := MasterConfig{
		Name:           "master",
		Fabric:         fabric,
		Router:         router,
		Model:          model,
		MaxTaskRetries: 3,
		Events:         sc.rec,
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	sc.master = NewMaster(cfg)
	if err := sc.master.RegisterTable(ctx, orderMeta); err != nil {
		t.Fatal(err)
	}
	if err := sc.master.RegisterTable(ctx, userMeta); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < nLeaves; i++ {
		leaf := &LeafServer{
			Name:   fmt.Sprintf("leaf%d", i),
			Fabric: fabric,
			Reader: exec.NewStoreReader(router),
			Index:  core.New(core.Options{}),
			Router: router,
			Model:  model,
			Events: sc.rec,
		}
		leaf.Register()
		sc.leaves = append(sc.leaves, leaf)
	}
	for i := 0; i < nStems; i++ {
		stem := &StemServer{Name: fmt.Sprintf("stem%d", i), Fabric: fabric, Router: router, Model: model, Events: sc.rec}
		stem.Register()
		sc.stems = append(sc.stems, stem)
	}
	ctxb := context.Background()
	for _, l := range sc.leaves {
		if err := l.HeartbeatOnce(ctxb, "master"); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range sc.stems {
		if err := s.HeartbeatOnce(ctxb, "master"); err != nil {
			t.Fatal(err)
		}
	}
	return sc
}

func (sc *shuffleCluster) query(sql string, opts QueryOptions) (*exec.Result, *QueryStats) {
	sc.t.Helper()
	res, stats, err := sc.master.Submit(context.Background(), sql, opts)
	if err != nil {
		sc.t.Fatalf("Submit(%q): %v", sql, err)
	}
	return res, stats
}

// rowStrings renders a result as a sorted bag of "|"-joined rows.
func rowStrings(res *exec.Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func assertSameRows(t *testing.T, label string, want, got *exec.Result) {
	t.Helper()
	w, g := rowStrings(want), rowStrings(got)
	if len(w) != len(g) {
		t.Fatalf("%s: %d rows, want %d", label, len(g), len(w))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("%s: row %d = %q, want %q", label, i, g[i], w[i])
		}
	}
}

// repartitionOpts forces the distributed path: any join table bigger than
// one byte repartitions instead of broadcasting.
func repartitionOpts() plan.Options {
	return plan.Options{BroadcastThreshold: 1, ShufflePartitions: 5}
}

// TestShuffleJoinMatchesBroadcast runs the same join queries through the
// broadcast path and the repartition path and demands identical results —
// the cluster-level differential check for the shuffle machinery.
func TestShuffleJoinMatchesBroadcast(t *testing.T) {
	broadcast := newShuffleCluster(t, 4, 2, 4, 2, nil)
	shuffled := newShuffleCluster(t, 4, 2, 4, 2, func(cfg *MasterConfig) {
		cfg.Planner = repartitionOpts()
	})
	queries := []string{
		"SELECT COUNT(*) AS n, SUM(o.amt) AS total FROM orders o, users u WHERE o.uid = u.uid",
		"SELECT o.id AS id, u.name AS name FROM orders o JOIN users u ON o.uid = u.uid WHERE u.region = 2 ORDER BY id",
		"SELECT u.region AS region, COUNT(*) AS n, SUM(o.amt) AS total FROM orders o JOIN users u ON o.uid = u.uid GROUP BY region ORDER BY region",
		"SELECT o.id AS id, u.name AS name FROM orders o LEFT OUTER JOIN users u ON o.uid = u.uid WHERE o.amt = 7 ORDER BY id",
	}
	for _, sql := range queries {
		bres, bstats := broadcast.query(sql, QueryOptions{})
		sres, sstats := shuffled.query(sql, QueryOptions{})
		assertSameRows(t, sql, bres, sres)
		if bstats.Tasks != 4 {
			t.Errorf("%s: broadcast ran %d tasks, want 4 (one per fact partition)", sql, bstats.Tasks)
		}
		if sstats.Tasks != 6 {
			t.Errorf("%s: shuffle ran %d map tasks, want 6 (4 probe + 2 build)", sql, sstats.Tasks)
		}
		if sstats.SimTime <= 0 || sstats.ScanSimTime <= 0 {
			t.Errorf("%s: sim times not positive: %+v", sql, sstats)
		}
	}
}

// TestShuffleInnerJoinAgainstOracle brute-forces the join over the raw
// generated rows and checks the distributed result against it.
func TestShuffleInnerJoinAgainstOracle(t *testing.T) {
	sc := newShuffleCluster(t, 3, 2, 3, 2, func(cfg *MasterConfig) {
		cfg.Planner = repartitionOpts()
	})
	var wantN, wantTotal int64
	byUID := map[int64]int{}
	for _, u := range sc.users {
		byUID[u.uid]++
	}
	for _, o := range sc.orders {
		n := int64(byUID[o.uid])
		wantN += n
		wantTotal += n * o.amt
	}
	res, _ := sc.query("SELECT COUNT(*) AS n, SUM(o.amt) AS total FROM orders o, users u WHERE o.uid = u.uid", QueryOptions{})
	if res.Rows[0][0].I != wantN || res.Rows[0][1].I != wantTotal {
		t.Fatalf("got (%v, %v), want (%d, %d)", res.Rows[0][0], res.Rows[0][1], wantN, wantTotal)
	}
}

// TestShuffleRightOuterJoin checks the join type the broadcast engine
// cannot run at all: unmatched build rows must surface null-extended.
func TestShuffleRightOuterJoin(t *testing.T) {
	sc := newShuffleCluster(t, 3, 2, 3, 2, func(cfg *MasterConfig) {
		cfg.Planner = repartitionOpts()
	})
	var want []string
	matched := map[int64]bool{}
	for _, o := range sc.orders {
		for _, u := range sc.users {
			if o.uid == u.uid {
				want = append(want, fmt.Sprintf("%d|%d", u.uid, o.id))
				matched[u.uid] = true
			}
		}
	}
	for _, u := range sc.users {
		if !matched[u.uid] {
			want = append(want, fmt.Sprintf("%d|NULL", u.uid))
		}
	}
	sort.Strings(want)

	res, _ := sc.query("SELECT u.uid AS uid, o.id AS oid FROM orders o RIGHT OUTER JOIN users u ON o.uid = u.uid ORDER BY uid", QueryOptions{})
	got := rowStrings(res)
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestShuffleGroupByMatchesCentralMerge forces the group-by shuffle (every
// grouped aggregation repartitions) and compares with the classic
// master-side merge.
func TestShuffleGroupByMatchesCentralMerge(t *testing.T) {
	central := newShuffleCluster(t, 4, 2, 4, 1, nil)
	shuffled := newShuffleCluster(t, 4, 2, 4, 1, func(cfg *MasterConfig) {
		cfg.Planner = plan.Options{GroupShuffleRows: 1, ShufflePartitions: 3}
	})
	sql := "SELECT amt, COUNT(*) AS n, SUM(id) AS s, AVG(id) AS a FROM orders GROUP BY amt ORDER BY amt"
	cres, cstats := central.query(sql, QueryOptions{})
	sres, sstats := shuffled.query(sql, QueryOptions{})
	assertSameRows(t, sql, cres, sres)
	if cstats.SimTime <= 0 || sstats.SimTime <= 0 {
		t.Errorf("sim times not positive: central %v, shuffled %v", cstats.SimTime, sstats.SimTime)
	}
}

// TestShuffleWithoutStems exercises the standby shape: no stems at all, so
// the master doubles as the sole reducer through its local stem.
func TestShuffleWithoutStems(t *testing.T) {
	sc := newShuffleCluster(t, 3, 0, 3, 1, func(cfg *MasterConfig) {
		cfg.Planner = repartitionOpts()
	})
	var want int64
	nUsers := int64(len(sc.users))
	for _, o := range sc.orders {
		if o.uid < nUsers {
			want++
		}
	}
	res, stats := sc.query("SELECT COUNT(*) AS n FROM orders o, users u WHERE o.uid = u.uid", QueryOptions{})
	if res.Rows[0][0].I != want {
		t.Fatalf("count = %v, want %d", res.Rows[0][0], want)
	}
	if stats.Tasks != 4 {
		t.Errorf("tasks = %d, want 4 (3 probe + 1 build)", stats.Tasks)
	}
}

// TestShuffleReducerSpill shrinks the reducer memory grant to one byte so
// every partition grace-hash spills through the storage router, and checks
// the result is unchanged and the spill was billed.
func TestShuffleReducerSpill(t *testing.T) {
	clean := newShuffleCluster(t, 3, 2, 3, 2, func(cfg *MasterConfig) {
		cfg.Planner = repartitionOpts()
	})
	spilling := newShuffleCluster(t, 3, 2, 3, 2, func(cfg *MasterConfig) {
		opts := repartitionOpts()
		opts.MemoryGrantBytes = 1
		cfg.Planner = opts
	})
	sql := "SELECT o.id AS id, u.name AS name FROM orders o JOIN users u ON o.uid = u.uid ORDER BY id"
	cres, cstats := clean.query(sql, QueryOptions{})
	sres, sstats := spilling.query(sql, QueryOptions{})
	assertSameRows(t, sql, cres, sres)
	if cstats.ShuffleSpillBytes != 0 {
		t.Errorf("clean run spilled %d bytes", cstats.ShuffleSpillBytes)
	}
	if sstats.ShuffleSpillBytes == 0 {
		t.Error("spilling run reported no spill bytes")
	}
	spillEvents := 0
	for _, e := range spilling.rec.Events() {
		if e.Kind == events.ShuffleSpill {
			spillEvents++
		}
	}
	if spillEvents == 0 {
		t.Error("no shuffle.spill events recorded")
	}
}

// shuffleDropper drops the first N Shuffle-class messages.
type shuffleDropper struct {
	remaining atomic.Int64
}

func (f *shuffleDropper) Intercept(ctx context.Context, from, to string, class transport.Class, size int64) transport.Fault {
	if class == transport.Shuffle && f.remaining.Add(-1) >= 0 {
		return transport.Fault{Drop: true}
	}
	return transport.Fault{}
}

// shuffleDuplicator delivers every Shuffle-class message twice.
type shuffleDuplicator struct{}

func (shuffleDuplicator) Intercept(ctx context.Context, from, to string, class transport.Class, size int64) transport.Fault {
	return transport.Fault{Duplicate: class == transport.Shuffle}
}

// commitsPerReducer counts a query's shuffle.commit events by map task site
// and committing reducer ("task/q#N @ stemK").
func commitsPerReducer(rec *events.Recorder, qid string) map[string]int {
	commits := map[string]int{}
	for _, e := range rec.ForQuery(qid) {
		if e.Kind == events.ShuffleCommit {
			commits[e.Site+" "+e.Detail[strings.LastIndex(e.Detail, "@ "):]]++
		}
	}
	return commits
}

// requireOneCommitEach fails unless every map task committed exactly once at
// every reducer: the determinism guarantee the reduce relies on.
func requireOneCommitEach(t *testing.T, commits map[string]int, tasks, reducers int) {
	t.Helper()
	if len(commits) != tasks*reducers {
		t.Errorf("%d (map task, reducer) pairs committed, want %d × %d: %v", len(commits), tasks, reducers, commits)
	}
	for key, n := range commits {
		if n != 1 {
			t.Errorf("%s committed %d times", key, n)
		}
	}
}

// TestShuffleRetriesDroppedMessages drops shuffle messages mid-shuffle: the
// affected map attempts fail, the master retries them on other leaves, the
// reducers commit exactly one attempt per map task, and the result is
// identical to a clean run.
func TestShuffleRetriesDroppedMessages(t *testing.T) {
	clean := newShuffleCluster(t, 4, 2, 4, 2, func(cfg *MasterConfig) {
		cfg.Planner = repartitionOpts()
	})
	faulty := newShuffleCluster(t, 4, 2, 4, 2, func(cfg *MasterConfig) {
		cfg.Planner = repartitionOpts()
		cfg.RetryBackoff = time.Microsecond
	})
	dropper := &shuffleDropper{}
	dropper.remaining.Store(3)
	faulty.fabric.SetInterceptor(dropper)
	defer faulty.fabric.SetInterceptor(nil)

	sql := "SELECT u.region AS region, COUNT(*) AS n FROM orders o JOIN users u ON o.uid = u.uid GROUP BY region ORDER BY region"
	cres, _ := clean.query(sql, QueryOptions{})
	fres, fstats := faulty.query(sql, QueryOptions{})
	assertSameRows(t, sql, cres, fres)
	if fstats.BackupTasks == 0 {
		t.Error("no retries recorded despite dropped messages")
	}
	retries := 0
	for _, e := range faulty.rec.ForQuery(fstats.QueryID) {
		if e.Kind == events.TaskRetry {
			retries++
		}
	}
	if retries == 0 {
		t.Error("no task.retry events in the flight recorder")
	}
	// Whatever the retry interleaving, one commit per map task and reducer.
	requireOneCommitEach(t, commitsPerReducer(faulty.rec, fstats.QueryID), fstats.Tasks, len(faulty.stems))
}

// TestShuffleDuplicateDeliveryCommitsOnce delivers every shuffle message
// twice: each reducer commits the first copy and drops the second, so no
// attempt is lost, nothing is retried, and the rows equal a clean run.
func TestShuffleDuplicateDeliveryCommitsOnce(t *testing.T) {
	clean := newShuffleCluster(t, 4, 2, 4, 2, func(cfg *MasterConfig) {
		cfg.Planner = repartitionOpts()
	})
	duped := newShuffleCluster(t, 4, 2, 4, 2, func(cfg *MasterConfig) {
		cfg.Planner = repartitionOpts()
	})
	duped.fabric.SetInterceptor(shuffleDuplicator{})
	defer duped.fabric.SetInterceptor(nil)

	sql := "SELECT u.region AS region, COUNT(*) AS n, SUM(o.amt) AS s FROM orders o JOIN users u ON o.uid = u.uid GROUP BY region ORDER BY region"
	cres, _ := clean.query(sql, QueryOptions{})
	dres, dstats := duped.query(sql, QueryOptions{})
	assertSameRows(t, sql, cres, dres)
	if dstats.BackupTasks != 0 || dstats.TasksFailed != 0 {
		t.Errorf("backups=%d failed=%d, want a duplicate to cost no attempt", dstats.BackupTasks, dstats.TasksFailed)
	}
	if got := duped.fabric.Counters().Msgs[transport.Shuffle].Value(); got != int64(2*dstats.Tasks*len(duped.stems)) {
		t.Errorf("%d shuffle deliveries, want every one of %d × %d messages twice", got, dstats.Tasks, len(duped.stems))
	}
	requireOneCommitEach(t, commitsPerReducer(duped.rec, dstats.QueryID), dstats.Tasks, len(duped.stems))
}

// TestMapTaskTimeoutBackup: a map task is a task, so a straggling leaf in a
// repartition join is defended like any other — every map task stalled on it
// past TaskTimeout is backed up on another leaf, the reducers commit the
// backup attempt, and the rows equal the unstalled run.
func TestMapTaskTimeoutBackup(t *testing.T) {
	sc := newShuffleCluster(t, 4, 2, 4, 2, func(cfg *MasterConfig) {
		cfg.Planner = repartitionOpts()
	})
	sql := "SELECT u.region AS region, COUNT(*) AS n FROM orders o JOIN users u ON o.uid = u.uid GROUP BY region ORDER BY region"
	want, _ := sc.query(sql, QueryOptions{})
	sc.leaves[0].SetStall(time.Minute) // cut short by each attempt's timeout
	got, stats := sc.query(sql, QueryOptions{TaskTimeout: 200 * time.Millisecond})
	if stats.BackupTasks < 1 || stats.TasksFailed != 0 {
		t.Fatalf("backups=%d failed=%d, want leaf0's map tasks backed up elsewhere", stats.BackupTasks, stats.TasksFailed)
	}
	assertSameRows(t, sql, want, got)
}

// TestShuffleFailsTypedWhenLeavesDie kills enough leaves that a map task
// cannot be placed anywhere: the query must fail with ErrShuffleFailed
// (never a silent partial result), even when PartialResults is set.
func TestShuffleFailsTypedWhenLeavesDie(t *testing.T) {
	sc := newShuffleCluster(t, 3, 2, 3, 1, func(cfg *MasterConfig) {
		cfg.Planner = repartitionOpts()
		cfg.RetryBackoff = time.Microsecond
	})
	for _, l := range sc.leaves {
		sc.fabric.SetDown(l.Name, true)
	}
	_, _, err := sc.master.Submit(context.Background(),
		"SELECT COUNT(*) AS n FROM orders o, users u WHERE o.uid = u.uid",
		QueryOptions{PartialResults: true})
	if err == nil {
		t.Fatal("query succeeded with every leaf down")
	}
	if !errors.Is(err, ErrShuffleFailed) {
		t.Fatalf("error %v, want ErrShuffleFailed", err)
	}
}

// TestShuffleExplainAndAnalyze pins the observable plan/trace surface: the
// plan text names the repartition, and the executed trace carves shuffle
// transfer into its own critical-path segment.
func TestShuffleExplainAndAnalyze(t *testing.T) {
	sc := newShuffleCluster(t, 3, 2, 3, 2, func(cfg *MasterConfig) {
		cfg.Planner = repartitionOpts()
	})
	res, _ := sc.query("EXPLAIN SELECT COUNT(*) AS n FROM orders o, users u WHERE o.uid = u.uid", QueryOptions{})
	planText := resultText(res)
	if !strings.Contains(planText, "repartition inner join users") {
		t.Errorf("EXPLAIN lacks repartition line:\n%s", planText)
	}
	res, _ = sc.query("EXPLAIN ANALYZE SELECT COUNT(*) AS n FROM orders o, users u WHERE o.uid = u.uid", QueryOptions{})
	text := resultText(res)
	for _, want := range []string{"shuffle-map", "shuffle-transfer", "shuffle-reduce", "task#"} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN ANALYZE lacks %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "critical path") {
		t.Errorf("EXPLAIN ANALYZE lacks critical path:\n%s", text)
	}
}

func resultText(res *exec.Result) string {
	var sb strings.Builder
	for _, row := range res.Rows {
		sb.WriteString(row[0].S)
		sb.WriteString("\n")
	}
	return sb.String()
}
