package feisu

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/types"
	"repro/internal/workload"
)

// TestClusterMatchesSingleNode is the distribution-correctness invariant:
// for a broad set of generated queries, running through the full
// master/stem/leaf pipeline (with SmartIndex, partial aggregation and the
// stem fold) must produce the rows of a direct single-process execution
// over the same partitions. With one stem group — one stem, or none and the
// master's local stem — the tree's fold is the single node's left fold and
// the rows are bit-identical. With two groups the fold is a two-leaf tree:
// float aggregates may differ from the left fold in their last digits
// (within 1e-12 relative; every other cell is exact), but the same
// statement must return the same bits every time it runs.
func TestClusterMatchesSingleNode(t *testing.T) {
	arms := []struct {
		name       string
		cfg        Config
		partitions int
		bitExact   bool
	}{
		{"one-stem", Config{Leaves: 4}, 4, true},
		{"no-stems", Config{Leaves: 4, Stems: -1}, 4, true},
		// No background heartbeats: placement, and with it the grouping of
		// tasks under stems, then depends on the statement alone.
		{"two-stems", Config{Leaves: 8, Stems: 2, HeartbeatInterval: -1}, 8, false},
	}
	queries := generateEquivalenceQueries(60, 1234)
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			sys, err := New(arm.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			spec := workload.T1Spec()
			spec.Partitions = arm.partitions
			spec.RowsPerPart = 2048 / arm.partitions
			ctx := context.Background()
			meta, err := workload.Generate(ctx, sys.Router(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.RegisterTable(ctx, meta); err != nil {
				t.Fatal(err)
			}
			cat := plan.MapCatalog{"T1": meta}
			reader := exec.NewStoreReader(sys.Router())

			for _, q := range queries {
				clusterRes, err := sys.Query(ctx, q)
				if err != nil {
					t.Fatalf("cluster %q: %v", q, err)
				}
				localRes := runLocal(t, cat, reader, q)
				got, want := renderRows(clusterRes), renderRows(localRes)
				if arm.bitExact {
					if got != want {
						t.Fatalf("divergence on %q:\ncluster: %s\nlocal:   %s", q, got, want)
					}
					continue
				}
				if err := rowsWithin(clusterRes, localRes, 1e-12); err != nil {
					t.Fatalf("divergence on %q: %v\ncluster: %s\nlocal:   %s", q, err, got, want)
				}
				for run := 1; run < 20; run++ {
					again, err := sys.Query(ctx, q)
					if err != nil {
						t.Fatalf("cluster %q (run %d): %v", q, run, err)
					}
					if r := renderRows(again); r != got {
						t.Fatalf("%q is not deterministic:\nrun 0:  %s\nrun %d: %s", q, got, run, r)
					}
				}
			}
			if !arm.bitExact {
				_, stats, err := sys.QueryStats(ctx, queries[0], WithTrace())
				if err != nil {
					t.Fatal(err)
				}
				if n := len(stats.Trace.FindAll("stem/")); n != 2 {
					t.Fatalf("statement ran under %d stem group(s), want 2; the arm proves nothing:\n%s", n, stats.Trace.Render())
				}
			}
		})
	}
}

// rowsWithin compares two results cell by cell after sorting their rows by
// rendering (group keys come first and are distinct, so nearly-equal floats
// cannot reorder rows): DOUBLE cells may differ by tol relative, every other
// cell must render identically.
func rowsWithin(a, b *Result, tol float64) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("%d rows vs %d", len(a.Rows), len(b.Rows))
	}
	sorted := func(res *Result) [][]types.Value {
		rows := append([][]types.Value(nil), res.Rows...)
		sort.Slice(rows, func(i, j int) bool { return fmt.Sprint(rows[i]) < fmt.Sprint(rows[j]) })
		return rows
	}
	ra, rb := sorted(a), sorted(b)
	for i := range ra {
		for j, x := range ra[i] {
			y := rb[i][j]
			if x.T == types.Float64 && y.T == types.Float64 {
				if diff := math.Abs(x.F - y.F); diff > tol*math.Max(math.Abs(x.F), math.Abs(y.F)) {
					return fmt.Errorf("row %d col %d: %v vs %v", i, j, x.F, y.F)
				}
			} else if x.String() != y.String() {
				return fmt.Errorf("row %d col %d: %s vs %s", i, j, x.String(), y.String())
			}
		}
	}
	return nil
}

// runLocal executes the query in-process, no cluster machinery.
func runLocal(t *testing.T, cat plan.Catalog, reader *exec.StoreReader, q string) *Result {
	t.Helper()
	stmt, err := sqlparser.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	p, err := plan.Plan(stmt, cat)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	ctx := context.Background()
	var merged *exec.TaskResult
	for _, task := range p.Tasks() {
		tr, err := exec.RunTaskModel(ctx, task, reader, nil, nil)
		if err != nil {
			t.Fatalf("run %q: %v", q, err)
		}
		merged = exec.MergeResults(p, merged, tr)
	}
	res, err := exec.Finalize(p, merged)
	if err != nil {
		t.Fatalf("finalize %q: %v", q, err)
	}
	return res
}

// renderRows canonicalizes a result for comparison. Unordered select-mode
// results are sorted; ordered and aggregated results keep engine order.
func renderRows(res *Result) string {
	lines := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		lines[i] = strings.Join(cells, "|")
	}
	sort.Strings(lines)
	return strings.Join(lines, " ; ")
}

// generateEquivalenceQueries emits a broad deterministic mix: aggregations,
// group-bys, projections, ORs, negations, CONTAINS, within-aggregates.
func generateEquivalenceQueries(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	atoms := []string{
		"clicks > 5", "clicks <= 3", "pos = 4", "NOT (pos > 7)",
		"dwell < 120.5", "score >= 0.25", "uid < 40000",
		"query CONTAINS 'a'", "NOT (query CONTAINS 'spam')",
		"region = 'bj'", "spam = FALSE",
	}
	aggs := []string{"COUNT(*)", "SUM(clicks)", "MIN(pos)", "MAX(dwell)", "AVG(score)"}
	groups := []string{"region", "query", "pos"}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		where := ""
		switch rng.Intn(4) {
		case 0:
		case 1:
			where = " WHERE " + atoms[rng.Intn(len(atoms))]
		case 2:
			where = fmt.Sprintf(" WHERE %s AND %s", atoms[rng.Intn(len(atoms))], atoms[rng.Intn(len(atoms))])
		default:
			where = fmt.Sprintf(" WHERE %s OR %s", atoms[rng.Intn(len(atoms))], atoms[rng.Intn(len(atoms))])
		}
		switch rng.Intn(4) {
		case 0: // global aggregation
			out = append(out, "SELECT "+aggs[rng.Intn(len(aggs))]+" FROM T1"+where)
		case 1: // group by
			g := groups[rng.Intn(len(groups))]
			out = append(out, fmt.Sprintf("SELECT %s, %s FROM T1%s GROUP BY %s",
				g, aggs[rng.Intn(len(aggs))], where, g))
		case 2: // ordered projection
			out = append(out, "SELECT url, clicks FROM T1"+where+" ORDER BY url, clicks LIMIT 20")
		default: // arithmetic over aggregates
			out = append(out, "SELECT SUM(clicks) + COUNT(*) FROM T1"+where)
		}
	}
	return out
}

// chaosStream runs the fixed query stream twice (warmup pass, then a
// recorded pass) on a fresh system and returns the recorded pass's rendered
// rows and per-query SmartIndex hit counts, plus the plane's fired-fault
// schedule. mut customizes the Config (nil chaos = the fault-free baseline).
func chaosStream(t *testing.T, queries []string, mut func(*Config)) (rows []string, hits []int64, events []chaos.Event) {
	t.Helper()
	cfg := Config{Leaves: 4, HeartbeatInterval: -1}
	if mut != nil {
		mut(&cfg)
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	spec := workload.T1Spec()
	spec.Partitions = 4
	spec.RowsPerPart = 256
	meta, err := workload.Generate(ctx, sys.Router(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterTable(ctx, meta); err != nil {
		t.Fatal(err)
	}

	rows = make([]string, len(queries))
	hits = make([]int64, len(queries))
	for pass := 0; pass < 2; pass++ {
		for i, q := range queries {
			sys.ChaosTick()
			res, stats, err := sys.QueryStats(ctx, q)
			if err != nil {
				seed := int64(0)
				if cfg.Chaos != nil {
					seed = cfg.Chaos.Seed
				}
				t.Fatalf("query %q (pass %d, chaos seed %d): %v", q, pass, seed, err)
			}
			if pass == 1 {
				rows[i] = renderRows(res)
				hits[i] = stats.Scan.IndexHits
			}
		}
	}
	if p := sys.Chaos(); p != nil {
		events = p.Events()
	}
	return rows, hits, events
}

// lifecycleEvents filters a schedule down to the controller's kill/restart/
// straggle/partition decisions, which depend only on the seed and the tick
// count — the replay-stable core of a system-level run.
func lifecycleEvents(events []chaos.Event) []chaos.Event {
	var out []chaos.Event
	for _, e := range events {
		if e.Site == "lifecycle" {
			out = append(out, e)
		}
	}
	return out
}

// TestEquivalenceUnderChaos is the correctness-under-failure invariant: a
// fixed workload run under seeded fault injection returns exactly the rows
// of the fault-free run. Delay-only chaos (no retries fire) must also
// preserve SmartIndex hit counts after warmup; full chaos — leaf kills,
// message drops, read errors, corrupting reads — must still produce
// identical rows, because every failed task is retried to completion.
func TestEquivalenceUnderChaos(t *testing.T) {
	queries := generateEquivalenceQueries(20, 777)

	baseRows, baseHits, _ := chaosStream(t, queries, nil)
	warm := int64(0)
	for _, h := range baseHits {
		warm += h
	}
	if warm == 0 {
		t.Fatal("baseline recorded no SmartIndex hits after warmup; the strict comparison is vacuous")
	}

	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			// Phase 1 — delay-only chaos: messages and reads are slowed but
			// never lost, so execution is identical modulo time. Rows and
			// per-query index hits must match the baseline exactly.
			rows, hits, _ := chaosStream(t, queries, func(c *Config) {
				c.Chaos = &chaos.Config{
					Seed: seed,
					Transport: chaos.TransportChaos{
						Delay:    0.3,
						MaxDelay: 500 * time.Microsecond,
					},
					Storage: chaos.StorageChaos{
						SlowRead:      0.2,
						SlowReadDelay: 200 * time.Microsecond,
					},
				}
			})
			for i := range queries {
				if rows[i] != baseRows[i] {
					t.Fatalf("delay-only chaos diverged on %q:\nchaos: %s\nclean: %s", queries[i], rows[i], baseRows[i])
				}
				if hits[i] != baseHits[i] {
					t.Fatalf("delay-only chaos changed index hits on %q: %d vs %d", queries[i], hits[i], baseHits[i])
				}
			}

			// Phase 2 — full chaos: kills, drops, duplicates, read errors
			// and corrupting reads (caught by block checksums). Retries may
			// reorder and re-execute work, so index counts are off the
			// table, but the rows must still be byte-identical.
			fullChaos := func(c *Config) {
				c.Chaos = chaos.Default(seed)
				c.Chaos.Lifecycle.TickInterval = 0 // ChaosTick per query
				// Pairwise partitions can outlive a query's retry budget
				// (they heal on a later tick); they get their own coverage
				// in the soak test, where partial results are acceptable.
				c.Chaos.Lifecycle.Partition = 0
				c.TaskTimeout = 250 * time.Millisecond
			}
			rows, _, events := chaosStream(t, queries, fullChaos)
			for i := range queries {
				if rows[i] != baseRows[i] {
					t.Fatalf("full chaos (seed %d) diverged on %q:\nchaos: %s\nclean: %s", seed, queries[i], rows[i], baseRows[i])
				}
			}
			if len(events) == 0 {
				t.Fatal("full chaos fired no faults; the equivalence run proved nothing")
			}

			// Replay: a second system on the same seed must reproduce the
			// identical lifecycle schedule (kills, restarts, straggles),
			// tick for tick.
			_, _, replay := chaosStream(t, queries, fullChaos)
			want, got := lifecycleEvents(events), lifecycleEvents(replay)
			if len(want) == 0 {
				t.Fatal("no lifecycle events fired; raise the kill rate so replay is exercised")
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("same seed %d replayed a different lifecycle schedule:\nfirst:  %v\nsecond: %v", seed, want, got)
			}
		})
	}
}

func TestGeneratedQueriesCanonicalFixedPoint(t *testing.T) {
	// SmartIndex keys depend on canonical rendering being parse-stable.
	for _, q := range generateEquivalenceQueries(200, 5) {
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		s1 := stmt.String()
		stmt2, err := sqlparser.Parse(s1)
		if err != nil {
			t.Fatalf("reparse %q: %v", s1, err)
		}
		if s2 := stmt2.String(); s2 != s1 {
			t.Fatalf("not a fixed point:\n%q\n%q", s1, s2)
		}
	}
}
