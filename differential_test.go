package feisu

import (
	"context"
	"strings"
	"testing"

	"repro/internal/events"
	"repro/internal/sqltest"
	"repro/internal/workload"
)

// joinSpec is the root suites' generated join pair: the default tables, with
// the fact table's special-value columns (NaN, ±Inf, -0, NULL in f.x and
// BIGINTs around ±2^53 in f.b) and the queries that read them.
func joinSpec() workload.JoinSpec {
	spec := workload.DefaultJoinSpec()
	spec.Specials = true
	return spec
}

// newJoinSystem builds a deployment with the generated fact/dimension
// join pair registered, and hands back the same rows as in-memory tables
// for the sqltest oracle. mut adjusts the config (e.g. to force the
// repartition path).
func newJoinSystem(t *testing.T, mut func(*Config)) (*System, []*sqltest.Table) {
	t.Helper()
	cfg := Config{Leaves: 4, HeartbeatInterval: -1}
	if mut != nil {
		mut(&cfg)
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })

	ctx := context.Background()
	spec := joinSpec()
	factMeta, dimMeta, factRows, dimRows, err := workload.GenerateJoin(ctx, sys.Router(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterTable(ctx, factMeta); err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterTable(ctx, dimMeta); err != nil {
		t.Fatal(err)
	}
	tables := []*sqltest.Table{
		{Name: spec.FactName, Schema: workload.FactJoinSchema(spec.Specials), Rows: factRows},
		{Name: spec.DimName, Schema: workload.DimJoinSchema(), Rows: dimRows},
	}
	return sys, tables
}

// forceShuffle drops the broadcast threshold to one byte, so every join
// takes the repartition path.
func forceShuffle(c *Config) {
	c.BroadcastThreshold = 1
	c.ShufflePartitions = 3
}

// renderRefRows canonicalizes an oracle result the same way renderRows
// canonicalizes an engine result: sorted rendered lines, so comparisons
// are bag comparisons.
func renderRefRows(res *sqltest.Result) string {
	conv := &Result{Rows: res.Rows}
	return renderRows(conv)
}

// TestDifferentialJoinOracle is the differential harness's core: hundreds
// of generated join/GROUP BY queries run through the full cluster — on
// both the repartition-shuffle path and the broadcast path — and every
// result must bag-match the naive single-process reference executor.
// Queries are deterministic as bags by construction (LIMIT only appears
// under an ORDER BY covering all selected columns).
func TestDifferentialJoinOracle(t *testing.T) {
	spec := workload.DefaultJoinSpec()
	queries := workload.JoinQueries(spec.FactName, spec.DimName, 20250809, 520)

	shuffleSys, tables := newJoinSystem(t, forceShuffle)
	broadcastSys, _ := newJoinSystem(t, nil)

	ctx := context.Background()
	for i, q := range queries {
		sys, path := shuffleSys, "shuffle"
		if i%4 == 3 {
			sys, path = broadcastSys, "broadcast"
		}
		got, err := sys.Query(ctx, q)
		if err != nil {
			t.Fatalf("cluster (%s) #%d %q: %v", path, i, q, err)
		}
		want, err := sqltest.Run(q, tables...)
		if err != nil {
			t.Fatalf("oracle #%d %q: %v", i, q, err)
		}
		if g, w := renderRows(got), renderRefRows(want); g != w {
			t.Fatalf("divergence (%s) #%d on %q:\ncluster: %s\noracle:  %s", path, i, q, g, w)
		}
	}
}

// TestDifferentialShuffleVsBroadcast cross-checks the two engine join
// strategies directly against each other on the same query stream — a
// second, oracle-free differential axis.
func TestDifferentialShuffleVsBroadcast(t *testing.T) {
	spec := workload.DefaultJoinSpec()
	queries := workload.JoinQueries(spec.FactName, spec.DimName, 995511, 60)

	shuffleSys, _ := newJoinSystem(t, forceShuffle)
	broadcastSys, _ := newJoinSystem(t, nil)

	ctx := context.Background()
	for i, q := range queries {
		a, err := shuffleSys.Query(ctx, q)
		if err != nil {
			t.Fatalf("shuffle #%d %q: %v", i, q, err)
		}
		b, err := broadcastSys.Query(ctx, q)
		if err != nil {
			t.Fatalf("broadcast #%d %q: %v", i, q, err)
		}
		if g, w := renderRows(a), renderRows(b); g != w {
			t.Fatalf("strategy divergence #%d on %q:\nshuffle:   %s\nbroadcast: %s", i, q, g, w)
		}
	}
}

// TestDifferentialRepartitionActuallyUsed guards the harness against
// vacuity: under the forced threshold the join queries must execute more
// tasks than the pure broadcast plan (map tasks on both sides) and journal
// shuffle events, proving the shuffle path — not broadcast — produced the
// compared rows.
func TestDifferentialRepartitionActuallyUsed(t *testing.T) {
	sys, _ := newJoinSystem(t, forceShuffle)
	spec := workload.DefaultJoinSpec()
	ctx := context.Background()
	q := "SELECT f.id AS a, d.name AS b FROM " + spec.FactName + " f JOIN " + spec.DimName + " d ON f.k = d.k"
	_, stats, err := sys.QueryStats(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	// Broadcast would run one task per fact partition (4); repartition
	// adds the dimension-side map tasks.
	if stats.Tasks <= spec.FactPartitions {
		t.Fatalf("expected repartition map tasks on both sides, got %d tasks", stats.Tasks)
	}
	explain, err := sys.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "repartition") {
		t.Fatalf("forced-shuffle plan is not repartitioned:\n%s", explain)
	}
	// The flight recorder journals the shuffle's map/commit/reduce chain
	// under the query's ID.
	seen := make(map[events.Kind]int)
	for _, e := range sys.Events().ForQuery(stats.QueryID) {
		seen[e.Kind]++
	}
	for _, want := range []events.Kind{events.ShuffleMap, events.ShuffleCommit, events.ShuffleReduce} {
		if seen[want] == 0 {
			t.Errorf("journal for %s is missing kind %q (have %v)", stats.QueryID, want, seen)
		}
	}
}
