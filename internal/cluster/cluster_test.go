package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// testCluster wires a miniature Feisu deployment: a master, optional stems,
// and leaves co-located with a simulated HDFS holding the "logs" table.
type testCluster struct {
	t      *testing.T
	fabric *transport.Fabric // nil over TCP
	net    transport.Network
	router *storage.Router
	hdfs   *storage.DFS
	master *Master
	leaves []*LeafServer
	stems  []*StemServer
}

const testRowsPerPartition = 100

// newTestCluster builds nLeaves leaves and nStems stems, with the logs
// table split into nParts partitions on the simulated HDFS.
func newTestCluster(t *testing.T, nLeaves, nStems, nParts int, cfgMut func(*MasterConfig)) *testCluster {
	return newTestClusterOn(t, "sim", nLeaves, nStems, nParts, cfgMut)
}

// newTestClusterOn is newTestCluster on the given fabric: "sim" or "tcp"
// (every node behind one loopback listener).
func newTestClusterOn(t *testing.T, mode string, nLeaves, nStems, nParts int, cfgMut func(*MasterConfig)) *testCluster {
	t.Helper()
	model := sim.DefaultCostModel()
	topo := transport.NewTopology()

	hdfs := storage.NewHDFS("hdfs", model)
	router := storage.NewRouter(storage.NewMemFS("", model))
	router.Register(hdfs)

	tc := &testCluster{t: t, router: router, hdfs: hdfs}
	if mode == "tcp" {
		tcp, err := transport.NewTCP(topo, transport.Options{}, transport.TCPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tcp.Close() })
		tc.net = tcp
	} else {
		tc.fabric = transport.NewFabric(topo, transport.Options{})
		tc.net = tc.fabric
	}
	fabric := tc.net

	for i := 0; i < nLeaves; i++ {
		name := fmt.Sprintf("leaf%d", i)
		rack := fmt.Sprintf("r%d", i/2)
		topo.Place(name, rack, "dc1")
		hdfs.AddNode(name, rack)
	}
	topo.Place("master", "r-master", "dc1")

	// Table: id BIGINT, v BIGINT (=id%10), s STRING.
	schema := types.MustSchema(
		types.Field{Name: "id", Type: types.Int64},
		types.Field{Name: "v", Type: types.Int64},
		types.Field{Name: "s", Type: types.String},
	)
	meta := &plan.TableMeta{Name: "logs", Schema: schema}
	ctx := context.Background()
	for p := 0; p < nParts; p++ {
		w := colstore.NewWriter(schema, 32)
		for r := 0; r < testRowsPerPartition; r++ {
			id := int64(p*testRowsPerPartition + r)
			if err := w.Append(types.Row{
				types.NewInt(id), types.NewInt(id % 10), types.NewString(fmt.Sprintf("row-%d", id)),
			}); err != nil {
				t.Fatal(err)
			}
		}
		data, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		path := fmt.Sprintf("/hdfs/logs/p%d", p)
		if err := router.WriteFile(ctx, path, data); err != nil {
			t.Fatal(err)
		}
		meta.Partitions = append(meta.Partitions, plan.PartitionMeta{
			Path: path, Rows: testRowsPerPartition, Bytes: int64(len(data)),
		})
	}

	cfg := MasterConfig{
		Name:           "master",
		Fabric:         fabric,
		Router:         router,
		Model:          model,
		MaxTaskRetries: 3,
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	tc.master = NewMaster(cfg)
	if err := tc.master.RegisterTable(ctx, meta); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < nLeaves; i++ {
		leaf := &LeafServer{
			Name:   fmt.Sprintf("leaf%d", i),
			Fabric: fabric,
			Reader: exec.NewStoreReader(router),
			Index:  core.New(core.Options{}),
			Router: router,
		}
		leaf.Register()
		tc.leaves = append(tc.leaves, leaf)
	}
	for i := 0; i < nStems; i++ {
		stem := &StemServer{Name: fmt.Sprintf("stem%d", i), Fabric: fabric, Router: router, Model: model}
		stem.Register()
		tc.stems = append(tc.stems, stem)
	}
	tc.beat()
	return tc
}

// beat delivers one heartbeat from every worker.
func (tc *testCluster) beat() {
	ctx := context.Background()
	for _, l := range tc.leaves {
		if err := l.HeartbeatOnce(ctx, "master"); err != nil {
			tc.t.Fatal(err)
		}
	}
	for _, s := range tc.stems {
		if err := s.HeartbeatOnce(ctx, "master"); err != nil {
			tc.t.Fatal(err)
		}
	}
}

func (tc *testCluster) query(sql string, opts QueryOptions) (*exec.Result, *QueryStats) {
	tc.t.Helper()
	res, stats, err := tc.master.Submit(context.Background(), sql, opts)
	if err != nil {
		tc.t.Fatalf("Submit(%q): %v", sql, err)
	}
	return res, stats
}

func TestEndToEndCountWithStems(t *testing.T) {
	tc := newTestCluster(t, 4, 2, 4, nil)
	res, stats := tc.query("SELECT COUNT(*) FROM logs", QueryOptions{})
	if res.Rows[0][0].I != 400 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	if stats.Tasks != 4 || stats.TasksFailed != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.SimTime <= 0 {
		t.Error("sim time should be positive")
	}
}

func TestEndToEndWithoutStems(t *testing.T) {
	tc := newTestCluster(t, 3, 0, 3, nil)
	res, _ := tc.query("SELECT COUNT(*) FROM logs WHERE v < 5", QueryOptions{})
	if res.Rows[0][0].I != 150 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestEndToEndGroupBy(t *testing.T) {
	tc := newTestCluster(t, 4, 2, 4, nil)
	res, _ := tc.query("SELECT v, COUNT(*) AS n FROM logs GROUP BY v ORDER BY v", QueryOptions{})
	if len(res.Rows) != 10 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row[0].I != int64(i) || row[1].I != 40 {
			t.Errorf("group %d = %+v", i, row)
		}
	}
}

func TestEndToEndSelectRows(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 2, nil)
	res, _ := tc.query("SELECT id, s FROM logs WHERE id >= 195 ORDER BY id LIMIT 3", QueryOptions{})
	if len(res.Rows) != 3 || res.Rows[0][0].I != 195 || res.Rows[0][1].S != "row-195" {
		t.Errorf("rows = %+v", res.Rows)
	}
}

func TestSmartIndexWarmsAcrossQueries(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 2, nil)
	_, first := tc.query("SELECT COUNT(*) FROM logs WHERE v > 3", QueryOptions{})
	if first.Scan.IndexMisses == 0 {
		t.Fatalf("first run should miss: %+v", first.Scan)
	}
	_, second := tc.query("SELECT COUNT(*) FROM logs WHERE v > 3", QueryOptions{})
	if second.Scan.IndexHits == 0 || second.Scan.ColumnReads != 0 {
		t.Errorf("second run should be index-served: %+v", second.Scan)
	}
	if second.SimTime >= first.SimTime {
		t.Errorf("warm query should be faster: %v vs %v", second.SimTime, first.SimTime)
	}
}

func TestSchedulerPrefersDataHolders(t *testing.T) {
	tc := newTestCluster(t, 4, 0, 4, nil)
	for _, task := range mustTasks(t, tc, "SELECT COUNT(*) FROM logs") {
		leaf, err := tc.master.Scheduler.Place(task, nil)
		if err != nil {
			t.Fatal(err)
		}
		holders := tc.router.Locations(task.Partition.Path)
		if !slices.Contains(holders, leaf) {
			t.Errorf("task %s placed on %s, holders %v", task.Partition.Path, leaf, holders)
		}
	}
}

func mustTasks(t *testing.T, tc *testCluster, sql string) []plan.TaskSpec {
	t.Helper()
	stmt, err := parseSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Plan(stmt, tc.master.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	return p.Tasks()
}

func TestLeafFailureBackupTasks(t *testing.T) {
	tc := newTestCluster(t, 3, 1, 3, nil)
	// Kill one leaf after heartbeats: the fabric rejects calls to it, and
	// the master reissues its tasks on other leaves.
	tc.fabric.SetDown("leaf0", true)
	res, stats := tc.query("SELECT COUNT(*) FROM logs", QueryOptions{})
	if res.Rows[0][0].I != 300 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	if stats.BackupTasks == 0 {
		t.Errorf("expected backup tasks, stats = %+v", stats)
	}
}

func TestStragglerTimeoutBackup(t *testing.T) {
	tc := newTestCluster(t, 2, 0, 2, nil)
	tc.leaves[0].SetStall(300 * time.Millisecond) // straggler
	res, stats := tc.query("SELECT COUNT(*) FROM logs", QueryOptions{TaskTimeout: 50 * time.Millisecond})
	if res.Rows[0][0].I != 200 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	if stats.BackupTasks == 0 {
		t.Errorf("straggler should trigger a backup task: %+v", stats)
	}
}

func TestPartialResultUnderTimeLimit(t *testing.T) {
	tc := newTestCluster(t, 2, 0, 4, nil)
	// Both leaves are slow; per-task timeout + retries exhaust, but the
	// ratio option accepts whatever completed.
	tc.leaves[0].SetStall(250 * time.Millisecond)
	tc.leaves[1].SetStall(250 * time.Millisecond)
	res, stats, err := tc.master.Submit(context.Background(), "SELECT COUNT(*) FROM logs",
		QueryOptions{TimeLimit: 600 * time.Millisecond, MinProcessedRatio: 0.25})
	if err != nil {
		t.Fatalf("partial submit: %v", err)
	}
	if !res.Partial && stats.TasksFailed == 0 {
		t.Skip("machine fast enough that all tasks finished; nothing to assert")
	}
	if res.ProcessedRatio < 0.25 || res.ProcessedRatio >= 1 {
		t.Errorf("ratio = %v", res.ProcessedRatio)
	}
	if res.Rows[0][0].I >= 400 || res.Rows[0][0].I <= 0 {
		t.Errorf("partial count = %v", res.Rows[0][0])
	}
}

func TestDeadlineWithoutRatioFails(t *testing.T) {
	tc := newTestCluster(t, 1, 0, 2, nil)
	tc.leaves[0].SetStall(300 * time.Millisecond)
	_, _, err := tc.master.Submit(context.Background(), "SELECT COUNT(*) FROM logs",
		QueryOptions{TimeLimit: 60 * time.Millisecond})
	if err == nil {
		t.Fatal("expected deadline error")
	}
}

func TestNoLeavesError(t *testing.T) {
	tc := newTestCluster(t, 1, 0, 1, nil)
	tc.master.Manager.Forget("leaf0")
	if _, _, err := tc.master.Submit(context.Background(), "SELECT COUNT(*) FROM logs", QueryOptions{}); err == nil {
		t.Fatal("no leaves should fail")
	}
}

func TestEntryGuardAuthFlow(t *testing.T) {
	authority := auth.NewAuthority()
	quotas := auth.NewQuotas(1, 0)
	tc := newTestCluster(t, 2, 0, 2, func(cfg *MasterConfig) {
		cfg.Authority = authority
		cfg.Quotas = quotas
	})
	token, err := authority.Register("li")
	if err != nil {
		t.Fatal(err)
	}
	authority.Grant("li", "hdfs")
	authority.MapDomain("li", "hdfs", "svc-li")

	res, _ := tc.query("SELECT COUNT(*) FROM logs", QueryOptions{Token: token})
	if res.Rows[0][0].I != 200 {
		t.Errorf("count = %v", res.Rows[0][0])
	}

	// Bad token.
	if _, _, err := tc.master.Submit(context.Background(), "SELECT COUNT(*) FROM logs", QueryOptions{Token: "nope"}); !errors.Is(err, auth.ErrBadToken) {
		t.Errorf("bad token err = %v", err)
	}
	// Oversized query: one byte over the cap.
	if _, _, err := tc.master.Submit(context.Background(), queryOfBytes(t, maxQueryBytes+1), QueryOptions{Token: token}); !errors.Is(err, ErrQueryTooLarge) {
		t.Errorf("oversized query err = %v, want ErrQueryTooLarge", err)
	}
	// Unauthorized domain.
	token2, _ := authority.Register("mallory")
	if _, _, err := tc.master.Submit(context.Background(), "SELECT COUNT(*) FROM logs", QueryOptions{Token: token2}); !errors.Is(err, auth.ErrDenied) {
		t.Errorf("unauthorized err = %v", err)
	}
}

// queryOfBytes returns a statement over logs exactly n bytes long.
func queryOfBytes(t *testing.T, n int) string {
	t.Helper()
	prefix, suffix := "SELECT COUNT(*) FROM logs WHERE s CONTAINS '", "'"
	q := prefix + strings.Repeat("x", n-len(prefix)-len(suffix)) + suffix
	if len(q) != n {
		t.Fatalf("query is %d bytes, want %d", len(q), n)
	}
	return q
}

// The size cap holds on a master with no authority, on both fabrics: a
// statement at the cap runs, one a byte over it is refused before parsing.
func TestQuerySizeCapWithoutAuth(t *testing.T) {
	for _, mode := range []string{"sim", "tcp"} {
		t.Run(mode, func(t *testing.T) {
			tc := newTestClusterOn(t, mode, 2, 0, 2, nil)
			ctx := context.Background()
			res, _, err := tc.master.Submit(ctx, queryOfBytes(t, maxQueryBytes), QueryOptions{})
			if err != nil {
				t.Fatalf("query at the cap: %v", err)
			}
			if got := res.Rows[0][0].I; got != 0 {
				t.Errorf("count at the cap = %d, want 0", got)
			}
			errs := tc.master.QueryErrs.Value()
			if _, _, err := tc.master.Submit(ctx, queryOfBytes(t, maxQueryBytes+1), QueryOptions{}); !errors.Is(err, ErrQueryTooLarge) {
				t.Fatalf("query over the cap: err = %v, want ErrQueryTooLarge", err)
			}
			if got := tc.master.QueryErrs.Value() - errs; got != 1 {
				t.Errorf("query errors counted = %d, want 1", got)
			}
		})
	}
}

func TestMasterFailover(t *testing.T) {
	tc := newTestCluster(t, 2, 0, 2, nil)
	backup := NewMaster(MasterConfig{
		Name:    "master2",
		Fabric:  tc.fabric,
		Router:  tc.router,
		Model:   sim.DefaultCostModel(),
		Standby: true,
	})
	ctx := context.Background()
	if err := tc.master.AddBackup(ctx, "master2"); err != nil {
		t.Fatal(err)
	}
	// New registrations replicate via the op log.
	extra := &plan.TableMeta{Name: "extra", Schema: types.MustSchema(types.Field{Name: "x", Type: types.Int64})}
	if err := tc.master.RegisterTable(ctx, extra); err != nil {
		t.Fatal(err)
	}
	// Standby refuses queries.
	if _, _, err := backup.Submit(ctx, "SELECT COUNT(*) FROM logs", QueryOptions{}); !errors.Is(err, ErrStandby) {
		t.Fatalf("standby submit = %v", err)
	}
	// Failover: promote, repoint heartbeats, query.
	backup.Promote()
	for _, l := range tc.leaves {
		if err := l.HeartbeatOnce(ctx, "master2"); err != nil {
			t.Fatal(err)
		}
	}
	res, _, err := backup.Submit(ctx, "SELECT COUNT(*) FROM logs", QueryOptions{})
	if err != nil {
		t.Fatalf("post-failover submit: %v", err)
	}
	if res.Rows[0][0].I != 200 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	if _, err := backup.Jobs.Lookup("extra"); err != nil {
		t.Errorf("replicated table missing: %v", err)
	}
}

func TestClusterManagerLiveness(t *testing.T) {
	now := time.Unix(0, 0)
	m := NewClusterManager(10 * time.Second)
	m.Now = func() time.Time { return now }
	m.Heartbeat("leaf0", KindLeaf, 2)
	if !m.Alive("leaf0") || m.Load("leaf0") != 2 {
		t.Error("fresh heartbeat should be alive")
	}
	now = now.Add(11 * time.Second)
	if m.Alive("leaf0") {
		t.Error("stale heartbeat should be dead")
	}
	if got := m.AliveWorkers(KindLeaf); len(got) != 0 {
		t.Errorf("alive = %v", got)
	}
	m.Heartbeat("leaf0", KindLeaf, 0)
	m.AddInflight("leaf0", 3)
	if m.Load("leaf0") != 3 {
		t.Errorf("load = %d", m.Load("leaf0"))
	}
	m.AddInflight("leaf0", -5)
	if m.Load("leaf0") != 0 {
		t.Error("inflight must not go negative")
	}
}

func TestSchedulerNoCandidates(t *testing.T) {
	tc := newTestCluster(t, 1, 0, 1, nil)
	task := mustTasks(t, tc, "SELECT COUNT(*) FROM logs")[0]
	if _, err := tc.master.Scheduler.Place(task, map[string]bool{"leaf0": true}); err == nil {
		t.Error("all-excluded placement should fail")
	}
}

func TestSimTimeScalesDown(t *testing.T) {
	// More leaves -> more parallelism -> lower simulated response time
	// (the Fig. 12 mechanism at miniature scale).
	small := newTestCluster(t, 1, 0, 8, nil)
	big := newTestCluster(t, 8, 0, 8, nil)
	_, s1 := small.query("SELECT COUNT(*) FROM logs WHERE v >= 0", QueryOptions{})
	_, s8 := big.query("SELECT COUNT(*) FROM logs WHERE v >= 0", QueryOptions{})
	if s8.SimTime >= s1.SimTime {
		t.Errorf("8-leaf sim time %v not below 1-leaf %v", s8.SimTime, s1.SimTime)
	}
}

func TestGobSpillRoundTrip(t *testing.T) {
	g := exec.NewGroups(2)
	grp := g.Get([]types.Value{types.NewString("k")})
	grp.Cells[0].Update(types.NewInt(4), false)
	grp.Cells[1].Update(types.NewFloat(2.5), false)
	r := &exec.TaskResult{
		Rows:   [][]types.Value{{types.NewInt(1), types.NewString("s")}},
		Groups: g,
	}
	data, err := exec.AppendResult(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := types.ReadAll(data, exec.ReadResult)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0][1].S != "s" {
		t.Errorf("rows = %+v", got.Rows)
	}
	if got.Groups == nil || got.Groups.M[exec.GroupKey(grp.Keys)].Cells[0].Count != 1 {
		t.Errorf("groups = %+v", got.Groups)
	}
	if _, err := types.ReadAll([]byte("junk"), exec.ReadResult); err == nil {
		t.Error("junk spill should fail")
	}
}

func parseSQL(sql string) (*sqlparser.SelectStmt, error) {
	return sqlparser.Parse(sql)
}

func TestRemoteReadChargesNetwork(t *testing.T) {
	tc := newTestCluster(t, 4, 0, 1, nil)
	for _, l := range tc.leaves {
		l.Model = sim.DefaultCostModel()
	}
	task := mustTasks(t, tc, "SELECT COUNT(*) FROM logs WHERE v > 2")[0]
	holders := tc.router.Locations(task.Partition.Path)

	var local, remote *LeafServer
	for _, l := range tc.leaves {
		if slices.Contains(holders, l.Name) {
			local = l
		} else {
			remote = l
		}
	}
	if local == nil || remote == nil {
		t.Fatalf("need both local and remote leaves; holders=%v", holders)
	}

	ctx := context.Background()
	runOn := func(l *LeafServer) taskStatus {
		raw, err := l.handle(ctx, "test", taskBatch{Tasks: []plan.TaskSpec{task}})
		if err != nil {
			t.Fatal(err)
		}
		st := raw.(batchReply).Tasks[0].Status
		if st.Err != "" {
			t.Fatal(st.Err)
		}
		return st
	}
	localReply := runOn(local)
	remoteReply := runOn(remote)
	if localReply.DevBytes[sim.DeviceNetwork] != 0 {
		t.Errorf("local read should not charge network: %v", localReply.DevBytes)
	}
	if remoteReply.DevBytes[sim.DeviceNetwork] == 0 {
		t.Errorf("remote read must charge network: %v", remoteReply.DevBytes)
	}
	if remoteReply.SimTime <= localReply.SimTime {
		t.Errorf("remote task (%v) should cost more than local (%v)", remoteReply.SimTime, localReply.SimTime)
	}
}

// addUsersDim registers a small dimension table on the local store.
func (tc *testCluster) addUsersDim(t *testing.T) {
	t.Helper()
	schema := types.MustSchema(
		types.Field{Name: "v", Type: types.Int64},
		types.Field{Name: "name", Type: types.String},
	)
	w := colstore.NewWriter(schema, 16)
	names := []string{"zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine"}
	for i, n := range names {
		if err := w.Append(types.Row{types.NewInt(int64(i)), types.NewString(n)}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := tc.router.WriteFile(ctx, "/dims/users", data); err != nil {
		t.Fatal(err)
	}
	meta := &plan.TableMeta{Name: "names", Schema: schema, Partitions: []plan.PartitionMeta{
		{Path: "/dims/users", Rows: 10, Bytes: int64(len(data))},
	}}
	if err := tc.master.RegisterTable(ctx, meta); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndJoinLoadsDims(t *testing.T) {
	tc := newTestCluster(t, 3, 1, 3, nil)
	tc.addUsersDim(t)
	res, _ := tc.query(
		"SELECT name, COUNT(*) AS n FROM logs JOIN names ON logs.v = names.v WHERE logs.v < 2 GROUP BY name ORDER BY name",
		QueryOptions{})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if res.Rows[0][0].S != "one" || res.Rows[0][1].I != 30 {
		t.Errorf("row0 = %+v", res.Rows[0])
	}
	if res.Rows[1][0].S != "zero" || res.Rows[1][1].I != 30 {
		t.Errorf("row1 = %+v", res.Rows[1])
	}
}

func TestPingHandlers(t *testing.T) {
	tc := newTestCluster(t, 1, 1, 1, nil)
	ctx := context.Background()
	raw, err := tc.fabric.Call(ctx, "x", "leaf0", transport.Control, pingMsg{}, 8)
	if err != nil || raw.(pingReply).Kind != KindLeaf {
		t.Errorf("leaf ping = %+v, %v", raw, err)
	}
	raw, err = tc.fabric.Call(ctx, "x", "stem0", transport.Control, pingMsg{}, 8)
	if err != nil || raw.(pingReply).Kind != KindStem {
		t.Errorf("stem ping = %+v, %v", raw, err)
	}
	if _, err := tc.fabric.Call(ctx, "x", "master", transport.Control, pingMsg{}, 8); err != nil {
		t.Errorf("master ping = %v", err)
	}
	// Unknown message types are rejected everywhere.
	for _, node := range []string{"leaf0", "stem0", "master"} {
		if _, err := tc.fabric.Call(ctx, "x", node, transport.Control, struct{ X int }{1}, 8); err == nil {
			t.Errorf("%s should reject unknown messages", node)
		}
	}
}

func TestHeartbeatLoops(t *testing.T) {
	tc := newTestCluster(t, 1, 1, 1, nil)
	tc.master.Manager.Forget("leaf0")
	tc.master.Manager.Forget("stem0")
	tc.leaves[0].Start("master", 5*time.Millisecond)
	tc.stems[0].Start("master", 5*time.Millisecond)
	defer tc.leaves[0].Stop()
	defer tc.stems[0].Stop()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if tc.master.Manager.Alive("leaf0") && tc.master.Manager.Alive("stem0") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("heartbeat loops never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSchedulerFallbackWhenHoldersDead(t *testing.T) {
	tc := newTestCluster(t, 4, 0, 4, nil)
	task := mustTasks(t, tc, "SELECT COUNT(*) FROM logs")[0]
	holders := tc.router.Locations(task.Partition.Path)
	// Kill every holder in the cluster manager: the scheduler must fall
	// back to a non-holder with the lowest network distance.
	for _, h := range holders {
		tc.master.Manager.Forget(h)
	}
	leaf, err := tc.master.Scheduler.Place(task, nil)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(holders, leaf) {
		t.Errorf("placed on dead holder %s", leaf)
	}
}

func TestJobManagerHelpers(t *testing.T) {
	jm := NewJobManager()
	jm.RegisterTable(&plan.TableMeta{Name: "b"})
	jm.RegisterTable(&plan.TableMeta{Name: "a"})
	if got := jm.Tables(); len(got) != 2 || got[0] != "a" {
		t.Errorf("tables = %v", got)
	}
	if KindLeaf.String() != "leaf" || KindStem.String() != "stem" {
		t.Error("kind strings")
	}
}

// TestCatalogStampsGenerations: the job manager stores its own stamped copy
// of each registration. A fresh Version every time; a partition registered
// with Gen 0 (new bytes) gets that value, one that carries a Gen keeps it;
// and a backup that replays the primary's ops and snapshot never issues a
// stamp the primary already used.
func TestCatalogStampsGenerations(t *testing.T) {
	jm := NewJobManager()
	meta := &plan.TableMeta{Name: "t", Partitions: []plan.PartitionMeta{{Path: "/a"}, {Path: "/b"}}}
	op, superseded := jm.RegisterTable(meta)
	first := op.Table
	if first == meta || meta.Version != 0 || meta.Partitions[0].Gen != 0 {
		t.Fatal("the catalog stamped the caller's meta instead of its own copy")
	}
	if first.Version == 0 || first.Partitions[0].Gen != first.Version || first.Partitions[1].Gen != first.Version {
		t.Fatalf("new bytes not stamped: %+v", first)
	}
	if len(superseded) != 0 {
		t.Errorf("a first registration superseded %v", superseded)
	}

	// Keep /a as registered, rewrite /b in place (Gen 0), retire nothing.
	next := &plan.TableMeta{Name: "t", Partitions: []plan.PartitionMeta{first.Partitions[0], {Path: "/b"}}}
	op, superseded = jm.RegisterTable(next)
	second := op.Table
	if second.Version <= first.Version {
		t.Errorf("version %d after %d", second.Version, first.Version)
	}
	if second.Partitions[0].Gen != first.Partitions[0].Gen {
		t.Error("a carried Gen was restamped")
	}
	if second.Partitions[1].Gen != second.Version {
		t.Error("a Gen 0 partition kept its old generation")
	}
	if len(superseded) != 1 || superseded[0] != first.Partitions[1] {
		t.Errorf("superseded = %v, want /b at its first generation", superseded)
	}

	backup := NewJobManager()
	backup.Restore(jm.Snapshot())
	op, _ = backup.RegisterTable(&plan.TableMeta{Name: "u", Version: 40, Partitions: []plan.PartitionMeta{{Path: "/c", Gen: 90}}})
	if op.Table.Version <= 90 {
		t.Errorf("backup stamped version %d at or below a handed Gen 90", op.Table.Version)
	}
	op, _ = backup.RegisterTable(&plan.TableMeta{Name: "v", Partitions: []plan.PartitionMeta{{Path: "/d"}}})
	if got := op.Table.Partitions[0].Gen; got <= 90 || got <= second.Version {
		t.Errorf("backup reissued generation %d", got)
	}
	fresh := NewJobManager()
	fresh.Restore(jm.Snapshot())
	op, _ = fresh.RegisterTable(&plan.TableMeta{Name: "w"})
	if op.Table.Version <= second.Version {
		t.Errorf("a restored catalog reissued version %d (primary is at %d)", op.Table.Version, second.Version)
	}
}

func TestSubmitContextCancellation(t *testing.T) {
	tc := newTestCluster(t, 1, 0, 2, nil)
	tc.leaves[0].SetStall(200 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, _, err := tc.master.Submit(ctx, "SELECT COUNT(*) FROM logs", QueryOptions{})
	if err == nil {
		t.Fatal("canceled submit should fail")
	}
}
