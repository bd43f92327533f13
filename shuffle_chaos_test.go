package feisu

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/events"
	"repro/internal/workload"
)

// TestShuffleEquivalenceUnderChaos extends the chaos-equivalence
// invariant to the repartition path: a fixed join workload run under
// seeded fault injection — leaf kills, dropped and duplicated shuffle
// frames, read errors, stalls — must return exactly the fault-free rows,
// or fail with the typed cluster.ErrShuffleFailed. Shuffle map retries
// re-partition identical input identically and reducers commit exactly
// one attempt per task, so a retried shuffle cannot silently drop or
// duplicate join matches; and because dropping a map task drops matches,
// the engine refuses to degrade to partial results even when the query
// explicitly allows them.
func TestShuffleEquivalenceUnderChaos(t *testing.T) {
	spec := workload.DefaultJoinSpec()
	queries := workload.JoinQueries(spec.FactName, spec.DimName, 31337, 25)
	ctx := context.Background()

	// Fault-free baseline on the same forced-repartition configuration.
	baseSys, _ := newJoinSystem(t, forceShuffle)
	baseRows := make([]string, len(queries))
	for i, q := range queries {
		res, err := baseSys.Query(ctx, q)
		if err != nil {
			t.Fatalf("baseline %q: %v", q, err)
		}
		baseRows[i] = renderRows(res)
	}

	var retries, mapsDone, failures int
	for _, seed := range []int64{1, 2, 3} {
		sys, _ := newJoinSystem(t, func(c *Config) {
			forceShuffle(c)
			c.TaskTimeout = 250 * time.Millisecond
			c.Chaos = &chaos.Config{
				Seed: seed,
				Transport: chaos.TransportChaos{
					Drop:      0.04,
					Delay:     0.10,
					MaxDelay:  2 * time.Millisecond,
					Duplicate: 0.03,
				},
				Storage: chaos.StorageChaos{
					SlowRead:      0.05,
					SlowReadDelay: time.Millisecond,
					ReadErr:       0.01,
					Corrupt:       0.01,
				},
				Lifecycle: chaos.LifecycleChaos{
					Kill:          0.20,
					DownTicks:     2,
					MaxDown:       1,
					Straggle:      0.10,
					StraggleDelay: 3 * time.Millisecond,
					StraggleTicks: 2,
					// Pairwise partitions can outlive the retry budget;
					// they are covered by the soak test.
				},
			}
			c.Chaos.Lifecycle.TickInterval = 0 // ChaosTick per query
		})
		for i, q := range queries {
			sys.ChaosTick()
			res, err := sys.Query(ctx, q, WithMinProcessedRatio(0.5))
			if err != nil {
				// The one acceptable failure mode: the typed shuffle
				// error, even though the query allows partial results.
				if !errors.Is(err, cluster.ErrShuffleFailed) {
					t.Fatalf("seed %d query %q: untyped failure %v", seed, q, err)
				}
				failures++
				continue
			}
			if got := renderRows(res); got != baseRows[i] {
				t.Fatalf("chaos (seed %d) diverged on %q:\nchaos: %s\nclean: %s", seed, q, got, baseRows[i])
			}
		}
		// The flight recorder's shuffle stream shows what actually
		// happened: map completions prove the repartition path ran, and
		// retry events record every re-dispatched attempt.
		for _, e := range sys.Events().Events() {
			switch e.Kind {
			case events.ShuffleMap:
				mapsDone++
			case events.TaskRetry:
				retries++
			}
		}
	}
	if mapsDone == 0 {
		t.Fatal("no shuffle map tasks ran under chaos; the equivalence run proved nothing")
	}
	if retries == 0 {
		t.Fatal("chaos never forced a shuffle retry; raise the drop/kill rates so the retry path is exercised")
	}
	t.Logf("shuffle chaos: %d map completions, %d retries, %d typed failures across 3 seeds", mapsDone, retries, failures)
}
