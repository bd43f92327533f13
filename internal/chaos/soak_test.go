// Soak: concurrent queries race a chaos controller that kills, restarts,
// slows and partitions leaves. Run with -race (scripts/verify.sh does); the
// value of the test is that every lifecycle transition — fabric down-flags,
// suspect marking, retries, heals on Close — happens while queries
// are in flight.
package chaos_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	feisu "repro"
	"repro/internal/chaos"
	"repro/internal/workload"
)

func TestSoakConcurrentQueriesUnderChaos(t *testing.T) {
	cfg := feisu.Config{
		Leaves:            4,
		HeartbeatInterval: -1,
		TaskTimeout:       250 * time.Millisecond,
	}
	cfg.Chaos = chaos.Default(11)
	cfg.Chaos.Lifecycle.TickInterval = 0 // the soak loop ticks
	sys, err := feisu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	ctx := context.Background()
	spec := workload.T1Spec()
	spec.Partitions = 4
	spec.RowsPerPart = 128
	meta, err := workload.Generate(ctx, sys.Router(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterTable(ctx, meta); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		"SELECT COUNT(*) FROM T1 WHERE clicks > 3",
		"SELECT region, SUM(clicks) FROM T1 GROUP BY region",
		"SELECT MAX(dwell) FROM T1 WHERE pos = 2",
		"SELECT url, clicks FROM T1 WHERE uid < 30000 ORDER BY url, clicks LIMIT 10",
	}
	workers, perWorker := 4, 12
	if testing.Short() {
		perWorker = 4
	}

	var wg sync.WaitGroup
	var partials, failures atomic.Int64
	var firstErr atomic.Value
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := queries[(w+i)%len(queries)]
				_, stats, err := sys.QueryStats(ctx, q, feisu.WithPartialResults())
				// Lifecycle chaos ticks once per completed statement, not
				// on a wall clock, so how loaded the box is does not decide
				// which leaves are down. Every few ticks a leaf dies,
				// straggles or gets partitioned, and heals again.
				sys.ChaosTick()
				if err != nil {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, err)
					continue
				}
				if len(stats.TaskErrors) > 0 {
					partials.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	if n := failures.Load(); n > 0 {
		t.Fatalf("%d/%d queries failed outright under chaos seed %d (first: %v); chaos may only degrade, never break",
			n, workers*perWorker, sys.Chaos().Seed(), firstErr.Load())
	}
	// The soak must actually have soaked: leaves died and were revived
	// while the queries above all completed.
	plane := sys.Chaos()
	if plane.Kills.Value() == 0 {
		t.Fatal("no leaf was killed during the soak; lengthen the run or raise Lifecycle.Kill")
	}
	if plane.Restarts.Value() == 0 {
		t.Fatal("no leaf restarted during the soak")
	}
	t.Logf("soak seed %d: %d queries, %d partial, faults=%d (kills=%d restarts=%d straggles=%d retries=%d)",
		plane.Seed(), workers*perWorker, partials.Load(), plane.FaultCount(),
		plane.Kills.Value(), plane.Restarts.Value(), plane.Straggles.Value(),
		sys.Master().Retries.Value())
}
