package feisu

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/events"
	"repro/internal/workload"
)

// flightrecJournal runs a fixed serial query stream under lifecycle-only
// seeded chaos (kills, manual ticks) and returns the canonical journal as
// comparable signature lines. Everything that varies run-to-run is excluded
// by construction: arrival Seq and Wall are dropped; hedging is off
// (wall-clock EWMAs); scans are serial; queries run one at a time with one
// ChaosTick before each, so placement and the fault schedule depend only on
// the seed.
func flightrecJournal(t *testing.T, seed int64) []string {
	t.Helper()
	sys, err := New(Config{
		Leaves:            2,
		HeartbeatInterval: -1,
		ScanWorkers:       -1,
		HedgeDelay:        -1,
		Chaos: &chaos.Config{
			Seed: seed,
			Lifecycle: chaos.LifecycleChaos{
				Kill:      0.5,
				DownTicks: 1,
				MaxDown:   1,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	ctx := context.Background()
	spec := workload.T1Spec()
	spec.PathPrefix = "/mem/t1"
	spec.Partitions = 2
	spec.RowsPerPart = 256
	spec.Fields = 10
	meta, err := workload.Generate(ctx, sys.Router(), spec)
	if err == nil {
		err = sys.RegisterTable(ctx, meta)
	}
	if err != nil {
		t.Fatal(err)
	}

	queries := []string{
		"SELECT COUNT(*) FROM T1 WHERE clicks > 3",
		"SELECT uid, clicks FROM T1 WHERE clicks > 5 ORDER BY uid LIMIT 5",
		"SELECT COUNT(*), SUM(clicks) FROM T1 WHERE dwell <= 120",
		"SELECT COUNT(*) FROM T1 WHERE clicks > 3",
		"SELECT uid, clicks FROM T1 WHERE clicks > 8 ORDER BY uid LIMIT 5",
		"SELECT SUM(clicks) FROM T1 WHERE clicks > 2",
	}
	for _, q := range queries {
		sys.ChaosTick()
		if _, err := sys.Query(ctx, q); err != nil {
			t.Fatalf("seed %d: %q: %v", seed, q, err)
		}
	}

	evs := sys.Events().Canonical()
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = fmt.Sprintf("%s#%d %s q=%s t=%d sim=%s %s",
			e.Site, e.SiteSeq, e.Kind, e.Query, e.Task, e.Sim, e.Detail)
	}
	return out
}

// TestFlightRecorderDeterministicJournal is the ISSUE's chaos-integration
// invariant: the same seeded fault schedule over the same workload produces
// the same event sequence. Two fresh systems run an identical stream under
// identical lifecycle chaos; their canonical journals (per-site order,
// excluding arrival Seq and wall clocks) must match line for line —
// including the chaos.* fault events bridged from the injection plane and
// the task.retry recovery they trigger.
func TestFlightRecorderDeterministicJournal(t *testing.T) {
	for _, seed := range []int64{7, 19} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			a := flightrecJournal(t, seed)
			b := flightrecJournal(t, seed)
			if len(a) != len(b) {
				t.Fatalf("journal lengths diverged: %d vs %d\nrun A:\n%s\nrun B:\n%s",
					len(a), len(b), strings.Join(a, "\n"), strings.Join(b, "\n"))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("journals diverged at canonical line %d:\nrun A: %s\nrun B: %s",
						i, a[i], b[i])
				}
			}
			// The run must actually have exercised chaos: at least one
			// bridged fault event, or the determinism claim is vacuous for
			// the recovery paths.
			var chaosLines int
			for _, line := range a {
				if strings.Contains(line, events.ChaosPrefix) {
					chaosLines++
				}
			}
			if chaosLines == 0 {
				t.Fatalf("seed %d fired no chaos events; journal:\n%s", seed, strings.Join(a, "\n"))
			}
		})
	}
}

// TestFlightRecorderJournalChain asserts the per-query causal chain: one
// clean query journals submit -> admitted -> scheduled -> dispatched -> leaf
// exec -> collected -> done, all stitched by the same query ID, and the
// exporter serves that query's progress, trace and events under /debug/.
func TestFlightRecorderJournalChain(t *testing.T) {
	sys, err := New(Config{Leaves: 2, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	loadVisits(t, sys, "/hdfs/visits", 200)

	_, stats, err := sys.QueryStats(context.Background(),
		"SELECT COUNT(*) FROM visits WHERE clicks > 5", WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if stats.QueryID == "" {
		t.Fatal("query finished without a QueryID")
	}
	evs := sys.Events().ForQuery(stats.QueryID)
	seen := make(map[events.Kind]bool, len(evs))
	for _, e := range evs {
		if e.Query != stats.QueryID {
			t.Errorf("ForQuery leaked event for %q: %s", e.Query, e.String())
		}
		seen[e.Kind] = true
	}
	for _, want := range []events.Kind{
		events.QuerySubmit, events.QueryAdmitted, events.TaskScheduled,
		events.TaskDispatched, events.LeafExec, events.TaskCollected,
		events.QueryDone,
	} {
		if !seen[want] {
			t.Errorf("journal missing %q; got %d events:\n%s", want, len(evs), renderEvents(evs))
		}
	}

	// The same query is reachable through the exporter's debug surface.
	srv, err := sys.StartTelemetry("127.0.0.1:0", false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, ep := range []struct{ path, want string }{
		{"/debug/queries?format=json", `"active"`},
		{"/debug/trace/" + stats.QueryID, `"spans"`}, // a Jaeger document
		{"/debug/events?query=" + stats.QueryID, string(events.TaskCollected)},
	} {
		if code, body := scrape(t, srv.URL()+ep.path); code != 200 || !strings.Contains(body, ep.want) {
			t.Errorf("%s = %d, want 200 with %s:\n%s", ep.path, code, ep.want, body)
		}
	}
}

func renderEvents(evs []events.Event) string {
	var sb strings.Builder
	for _, e := range evs {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
