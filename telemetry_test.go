package feisu

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func scrape(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestTelemetryEndToEnd: a full System with SmartIndex budget, SSD cache
// and a slow-query threshold serves /metrics (with per-leaf index and
// cache series plus latency histograms), /healthz, and /debug/slowlog with
// a per-stage breakdown; \top's renderer shows every leaf.
func TestTelemetryEndToEnd(t *testing.T) {
	sys, err := New(Config{
		Leaves:                 4,
		CacheBytes:             1 << 20,
		CachePrefixes:          []string{"/hdfs/"},
		IndexMemoryBytes:       1 << 20,
		SlowQueryWallThreshold: time.Nanosecond, // everything is slow
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	loadVisits(t, sys, "/hdfs/visits", 400)

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := sys.Query(ctx, "SELECT COUNT(*) FROM visits WHERE clicks > 2"); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := sys.StartTelemetry("127.0.0.1:0", false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := scrape(t, srv.URL()+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`feisu_index_bytes{leaf="leaf0"}`,
		`feisu_index_budget_bytes{leaf="leaf0"} 1.048576e+06`,
		`feisu_cache_hit_ratio{leaf="leaf0"}`,
		`feisu_cache_capacity_bytes{leaf="leaf0"} 1.048576e+06`,
		`feisu_leaf_tasks_total{leaf="leaf0"}`,
		"# TYPE feisu_query_wall_seconds histogram",
		`feisu_query_wall_seconds_bucket{le="+Inf"} 3`,
		"feisu_query_sim_seconds_count 3",
		"feisu_queries_total 3",
		`feisu_node_up{kind="leaf",node="leaf0"} 1`,
		// Legacy flat counters surface under sanitized names.
		"leaf0_index_hits",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if code, body = scrape(t, srv.URL()+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}

	// Pprof is off by default.
	if code, _ = scrape(t, srv.URL()+"/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("/debug/pprof without the flag = %d, want 404", code)
	}

	// Slowlog: every query crossed the 1ns wall threshold and carries a
	// per-stage breakdown from its trace.
	entries := sys.Traces().Slow()
	if len(entries) != 3 {
		t.Fatalf("slowlog entries = %d, want 3", len(entries))
	}
	top := entries[0]
	if top.Fingerprint == "" || top.Tasks == 0 {
		t.Errorf("slowlog entry incomplete: %+v", top)
	}
	var stageNames []string
	for _, st := range telemetry.StagesFromTrace(top.Root) {
		stageNames = append(stageNames, st.Name)
	}
	joined := strings.Join(stageNames, ",")
	if !strings.Contains(joined, "master/execute") || !strings.Contains(joined, "leaf tasks") {
		t.Errorf("stages = %v", stageNames)
	}
	if counters := telemetry.CountersFromTrace(top.Root); counters["rows.scanned"] == 0 {
		t.Errorf("slowlog counters missing rows.scanned: %v", counters)
	}
	if code, body = scrape(t, srv.URL()+"/debug/slowlog"); code != 200 || !strings.Contains(body, "SELECT COUNT(*)") {
		t.Errorf("/debug/slowlog = %d %q", code, body)
	}

	// The \top dashboard shows every leaf (and the stem) with live load
	// after a heartbeat refresh.
	if err := sys.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	health := sys.ClusterHealth()
	topOut := health.Render()
	for i := 0; i < 4; i++ {
		if !strings.Contains(topOut, fmt.Sprintf("leaf%d", i)) {
			t.Errorf("\\top missing leaf%d:\n%s", i, topOut)
		}
	}
	if !strings.Contains(topOut, "5 alive") { // 4 leaves + 1 stem
		t.Errorf("\\top header wrong:\n%s", topOut)
	}
	var tasksSeen int64
	for _, n := range health.Nodes {
		tasksSeen += n.Load.TasksDone
	}
	if tasksSeen == 0 {
		t.Errorf("\\top shows no completed tasks after 3 queries:\n%s", topOut)
	}
}

// TestTelemetryScrapeDoesNotBlockQueries runs scrapes and queries
// concurrently; under -race this checks the scrape path (registry
// snapshots, gauge funcs, health view) against the query hot path.
func TestTelemetryScrapeDoesNotBlockQueries(t *testing.T) {
	sys, err := New(Config{
		Leaves:                4,
		CacheBytes:            1 << 20,
		CachePrefixes:         []string{"/hdfs/"},
		SlowQuerySimThreshold: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	loadVisits(t, sys, "/hdfs/visits", 200)

	srv, err := sys.StartTelemetry("127.0.0.1:0", false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				// Distinct per goroutine: a statement that follows an identical
				// executing one bills no sim time and is never slow.
				q := fmt.Sprintf("SELECT COUNT(*) FROM visits WHERE clicks > %d", 7*g+i%7)
				if _, err := sys.Query(ctx, q); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if code, body := scrape(t, srv.URL()+"/metrics"); code != 200 || len(body) == 0 {
					t.Errorf("scrape %d: code=%d len=%d", i, code, len(body))
					return
				}
				_, _ = scrape(t, srv.URL()+"/healthz")
				_, _ = scrape(t, srv.URL()+"/debug/slowlog")
			}
		}()
	}
	wg.Wait()

	if got := sys.Traces().SlowTotal(); got != 30 {
		t.Errorf("slowlog total = %d, want 30", got)
	}
	if _, body := scrape(t, srv.URL()+"/metrics"); !strings.Contains(body, "feisu_queries_total 30") {
		t.Errorf("final scrape missing query total")
	}
}
