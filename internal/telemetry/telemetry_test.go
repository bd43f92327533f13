package telemetry

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/types"
)

func TestWriteTextFormat(t *testing.T) {
	r := metrics.NewRegistry()
	r.CounterWith("feisu_tasks_total", metrics.L("leaf", "leaf1")).Add(3)
	r.CounterWith("feisu_tasks_total", metrics.L("leaf", "leaf0")).Add(7)
	r.GaugeWith("feisu_cache_bytes", metrics.L("leaf", "leaf0")).Set(1024)
	r.HistogramWith("feisu_query_seconds").Observe(0.5)
	r.Counter("master.queries").Add(2) // legacy flat counter

	var sb strings.Builder
	if err := WriteText(&sb, r.Families()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE feisu_tasks_total counter\n",
		`feisu_tasks_total{leaf="leaf0"} 7` + "\n",
		`feisu_tasks_total{leaf="leaf1"} 3` + "\n",
		"# TYPE feisu_cache_bytes gauge\n",
		`feisu_cache_bytes{leaf="leaf0"} 1024` + "\n",
		"# TYPE feisu_query_seconds histogram\n",
		`feisu_query_seconds_bucket{le="+Inf"} 1` + "\n",
		"feisu_query_seconds_sum 0.5\n",
		"feisu_query_seconds_count 1\n",
		"master_queries 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Samples within a family sort by label value.
	if strings.Index(out, `leaf="leaf0"} 7`) > strings.Index(out, `leaf="leaf1"} 3`) {
		t.Error("samples not sorted by label value")
	}
}

// TestWriteTextStableOrdering: two scrapes of the same registry render
// byte-identical output, and families appear name-sorted.
func TestWriteTextStableOrdering(t *testing.T) {
	r := metrics.NewRegistry()
	for i := 0; i < 8; i++ {
		r.CounterWith("feisu_b_total", metrics.L("leaf", fmt.Sprintf("leaf%d", i))).Inc()
		r.GaugeWith("feisu_a_bytes", metrics.L("leaf", fmt.Sprintf("leaf%d", i))).Set(float64(i))
	}
	var one, two strings.Builder
	if err := WriteText(&one, r.Families()); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&two, r.Families()); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Error("two scrapes of an unchanged registry differ")
	}
	if strings.Index(one.String(), "feisu_a_bytes") > strings.Index(one.String(), "feisu_b_total") {
		t.Error("families not sorted by name")
	}
}

func TestWriteTextLabelEscaping(t *testing.T) {
	r := metrics.NewRegistry()
	r.CounterWith("feisu_paths_total", metrics.L("path", "a\\b\"c\nd")).Inc()
	var sb strings.Builder
	if err := WriteText(&sb, r.Families()); err != nil {
		t.Fatal(err)
	}
	want := `feisu_paths_total{path="a\\b\"c\nd"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Errorf("escaped label missing; want %q in:\n%s", want, sb.String())
	}
}

func TestStagesAndCountersFromTrace(t *testing.T) {
	root := trace.New("master/query")
	d := root.Child("master/load-dims")
	d.SetSim(2 * time.Millisecond)
	d.Finish()
	e := root.Child("master/execute")
	leaf := e.Child("leaf/leaf0")
	leaf.SetSim(5 * time.Millisecond)
	leaf.Count("index.hit", 3)
	sc := leaf.Child("scan")
	sc.Count("rows.scanned", 100)
	sc.Finish()
	leaf.Finish()
	e.SetSim(5 * time.Millisecond)
	e.Finish()
	root.Finish()

	stages := StagesFromTrace(root)
	names := make([]string, len(stages))
	for i, s := range stages {
		names[i] = s.Name
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "master/load-dims") || !strings.Contains(joined, "master/execute") {
		t.Errorf("stages = %v", names)
	}
	if !strings.Contains(joined, "leaf tasks ×1") {
		t.Errorf("missing aggregated leaf stage: %v", names)
	}
	counters := CountersFromTrace(root)
	if counters["index.hit"] != 3 || counters["rows.scanned"] != 100 {
		t.Errorf("counters = %v", counters)
	}
	if StagesFromTrace(nil) != nil || CountersFromTrace(nil) != nil {
		t.Error("nil trace must yield nil")
	}
}

// TestServerEndpoints starts a master's exporter on an ephemeral port and
// checks its endpoints end to end, including the empty trace index and the
// 503 flip when a node dies.
func TestServerEndpoints(t *testing.T) {
	model := sim.DefaultCostModel()
	fabric := transport.NewFabric(transport.NewTopology(), transport.Options{})
	m := cluster.NewMaster(cluster.MasterConfig{
		Name:                  "master",
		Fabric:                fabric,
		Router:                storage.NewRouter(storage.NewMemFS("", model)),
		Model:                 model,
		Events:                events.New(0),
		SlowQuerySimThreshold: time.Nanosecond,
	})
	schema := types.MustSchema(types.Field{Name: "id", Type: types.Int64})
	if err := m.RegisterTable(context.Background(), &plan.TableMeta{Name: "empty", Schema: schema}); err != nil {
		t.Fatal(err)
	}

	now := time.Unix(0, 0)
	m.Manager.Now = func() time.Time { return now }
	m.Manager.HeartbeatLoad("leaf0", cluster.KindLeaf, cluster.LoadSnapshot{ActiveTasks: 1, IndexBytes: 2048, CacheHits: 3, CacheMisses: 1})

	srv, err := Start("127.0.0.1:0", m, false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Nothing kept yet: the trace index is an empty list, not null.
	if code, body := get("/debug/trace/"); code != 200 || !strings.Contains(body, `"traces": []`) {
		t.Errorf("/debug/trace/ before any query = %d %q", code, body)
	}

	// One statement: it crosses the 1ns sim threshold, so the master traces
	// it and keeps it as slow.
	_, stats, err := m.Submit(context.Background(), "SELECT COUNT(*) FROM empty", cluster.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC() // so the GC series below have something to count
	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, g := range goRuntime {
		if !strings.Contains(body, "# TYPE "+g.name+" "+g.typ.String()+"\n") {
			t.Errorf("/metrics lacks the %s series %s", g.typ, g.name)
		}
		if g.from != "/cpu/classes/gc/total:cpu-seconds" && !regexp.MustCompile(`(?m)^`+g.name+` [1-9]`).MatchString(body) {
			t.Errorf("/metrics reads no %s (from %s)", g.name, g.from)
		}
	}
	for _, want := range []string{
		"feisu_queries_total 1",
		"feisu_query_wall_seconds_count 1",
		"feisu_query_sim_seconds_count 1",
		"# TYPE feisu_events_recorded_total gauge",
		`feisu_node_up{kind="leaf",node="leaf0"} 1`,
		`feisu_node_index_bytes{kind="leaf",node="leaf0"} 2048`,
		`feisu_node_cache_hit_ratio{kind="leaf",node="leaf0"} 0.75`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	if code, body = get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body = get("/debug/slowlog"); code != 200 || !strings.Contains(body, "SELECT COUNT(*) FROM empty") {
		t.Errorf("/debug/slowlog = %d %q", code, body)
	}
	if code, body = get("/debug/slowlog?format=json"); code != 200 || !strings.Contains(body, `"total": 1`) || !strings.Contains(body, `"Stages"`) {
		t.Errorf("/debug/slowlog?format=json = %d %q", code, body)
	}
	if code, body = get("/debug/trace/" + stats.QueryID); code != 200 || !strings.Contains(body, `"master/query"`) {
		t.Errorf("/debug/trace/%s = %d %q", stats.QueryID, code, body)
	}
	if code, body = get("/debug/events?format=json&query=" + stats.QueryID); code != 200 || !strings.Contains(body, string(events.QueryDone)) {
		t.Errorf("/debug/events for %s = %d %q", stats.QueryID, code, body)
	}
	if code, body = get("/debug/queries?format=json"); code != 200 || !strings.Contains(body, `"active": 0`) {
		t.Errorf("/debug/queries = %d %q", code, body)
	}

	// Kill the node: /healthz flips to 503 and its load series vanish
	// from /metrics while feisu_node_up reports 0.
	now = now.Add(2 * time.Minute)
	if code, body = get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "leaf0") {
		t.Errorf("/healthz after death = %d %q", code, body)
	}
	_, body = get("/metrics")
	if !strings.Contains(body, `feisu_node_up{kind="leaf",node="leaf0"} 0`) {
		t.Errorf("dead node not reported down:\n%s", body)
	}
	if strings.Contains(body, "feisu_node_index_bytes") {
		t.Errorf("stale load gauge still exported:\n%s", body)
	}
	if !strings.Contains(body, `feisu_node_stale{kind="leaf",node="leaf0"} 1`) {
		t.Errorf("stale marker missing:\n%s", body)
	}
}
