package cluster

import (
	"context"
	"errors"
	"fmt"
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
	fabric *transport.Fabric
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
	t.Helper()
	model := sim.DefaultCostModel()
	topo := transport.NewTopology()
	fabric := transport.NewFabric(topo, transport.Options{Model: model})

	hdfs := storage.NewHDFS("hdfs", model)
	router := storage.NewRouter(storage.NewMemFS("", model))
	router.Register(hdfs)

	tc := &testCluster{t: t, fabric: fabric, router: router, hdfs: hdfs}

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
		LivenessWindow: time.Minute,
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
		if !contains(holders, leaf) {
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

func TestSpillPath(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 2, nil)
	for _, l := range tc.leaves {
		l.SpillThreshold = 64 // force spilling
		l.SpillPrefix = "/hdfs/feisu-tmp"
	}
	res, _ := tc.query("SELECT id FROM logs WHERE v = 3 ORDER BY id", QueryOptions{})
	if len(res.Rows) != 20 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if tc.fabric.Msgs[transport.Write].Value() == 0 {
		t.Error("spill should ride the write flow")
	}
	if err := checkSpillFiles(tc); err != nil {
		t.Error(err)
	}
}

func checkSpillFiles(tc *testCluster) error {
	files, err := tc.hdfs.List(context.Background(), "/feisu-tmp/")
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return errors.New("no spill files written")
	}
	return nil
}

func TestEntryGuardAuthFlow(t *testing.T) {
	authority := auth.NewAuthority()
	quotas := auth.NewQuotas(1, 0)
	tc := newTestCluster(t, 2, 0, 2, func(cfg *MasterConfig) {
		cfg.Authority = authority
		cfg.Quotas = quotas
		cfg.MaxQueryBytes = 200
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
	// Oversized query.
	big := "SELECT COUNT(*) FROM logs WHERE s CONTAINS '" + strings.Repeat("x", 300) + "'"
	if _, _, err := tc.master.Submit(context.Background(), big, QueryOptions{Token: token}); err == nil {
		t.Error("oversized query should be rejected")
	}
	// Unauthorized domain.
	token2, _ := authority.Register("mallory")
	if _, _, err := tc.master.Submit(context.Background(), "SELECT COUNT(*) FROM logs", QueryOptions{Token: token2}); !errors.Is(err, auth.ErrDenied) {
		t.Errorf("unauthorized err = %v", err)
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
	data, err := encodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0][1].S != "s" {
		t.Errorf("rows = %+v", got.Rows)
	}
	if got.Groups == nil || got.Groups.M[exec.GroupKey(grp.Keys)].Cells[0].Count != 1 {
		t.Errorf("groups = %+v", got.Groups)
	}
	if _, err := decodeResult([]byte("junk")); err == nil {
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
		if contains(holders, l.Name) {
			local = l
		} else {
			remote = l
		}
	}
	if local == nil || remote == nil {
		t.Fatalf("need both local and remote leaves; holders=%v", holders)
	}

	ctx := context.Background()
	runOn := func(l *LeafServer) taskReply {
		raw, err := l.handle(ctx, "test", taskMsg{Task: task})
		if err != nil {
			t.Fatal(err)
		}
		return raw.(taskReply)
	}
	localReply := runOn(local)
	remoteReply := runOn(remote)
	if localReply.DevBytes["net"] != 0 {
		t.Errorf("local read should not charge network: %v", localReply.DevBytes)
	}
	if remoteReply.DevBytes["net"] == 0 {
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
	if contains(holders, leaf) {
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

func TestStemParallelismBound(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 4, nil)
	tc.stems[0].Parallelism = 1 // serialize leaf calls
	res, _ := tc.query("SELECT COUNT(*) FROM logs", QueryOptions{})
	if res.Rows[0][0].I != 400 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}
