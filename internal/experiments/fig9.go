package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	feisu "repro"
	"repro/internal/workload"
)

// buildSystem creates a System with the scaled T1 dataset registered.
func buildSystem(scale Scale, mut func(*feisu.Config)) (*feisu.System, error) {
	cfg := feisu.Config{Leaves: scale.Leaves}
	if mut != nil {
		mut(&cfg)
	}
	sys, err := feisu.New(cfg)
	if err != nil {
		return nil, err
	}
	spec := workload.T1Spec()
	spec.Partitions = scale.Partitions
	spec.RowsPerPart = scale.DataRowsPerPartition
	meta, err := workload.Generate(context.Background(), sys.Router(), spec)
	if err != nil {
		return nil, err
	}
	if err := sys.RegisterTable(context.Background(), meta); err != nil {
		return nil, err
	}
	return sys, nil
}

// scanQueries produces the paper's §VI-B1 workload: random-parameter scan
// queries "SELECT a FROM T1 WHERE b OP1 value1 [[AND|OR] c OP2 value2]"
// over discrete value pools, so predicate reuse emerges exactly as in the
// production trace.
func scanQueries(n int, seed int64) []string {
	return scanQueriesWidth(n, seed, 1)
}

// scanQueriesWidth widens the value pools by the given factor; wider pools
// lower the predicate-reuse rate (used by Fig. 10, where the paper's
// federated scans see a smaller SmartIndex benefit than Fig. 9's hot
// stream).
func scanQueriesWidth(n int, seed int64, width int) []string {
	if width < 1 {
		width = 1
	}
	rng := rand.New(rand.NewSource(seed))
	// Parameters come from discrete pools: predicate reuse then emerges
	// exactly as in the production trace (§IV-A). The pool sizes mirror
	// the paper's operating point, where ~4000 queries saturate the hot
	// predicate set.
	numCols := []string{"clicks", "pos", "uid", "dwell", "score"}
	ops := []string{">", "<=", "="}
	atom := func() string {
		col := numCols[rng.Intn(len(numCols))]
		op := ops[rng.Intn(len(ops))]
		switch col {
		case "dwell":
			return fmt.Sprintf("%s %s %d", col, op, rng.Intn(6*width)*50/width)
		case "score":
			return fmt.Sprintf("%s %s 0.%02d", col, op, 1+rng.Intn(4*width))
		case "uid":
			return fmt.Sprintf("%s %s %d", col, op, rng.Intn(5*width)*20000/width)
		default:
			return fmt.Sprintf("%s %s %d", col, op, rng.Intn(8*width))
		}
	}
	contains := func() string {
		terms := []string{"weather", "music", "spam", "news", "maps"}
		return fmt.Sprintf("query CONTAINS '%s'", terms[rng.Intn(len(terms))])
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		sel := "COUNT(*)"
		if rng.Intn(4) == 0 {
			sel = "url"
		}
		var where string
		first := atom()
		if rng.Intn(5) == 0 {
			first = contains()
		}
		switch rng.Intn(3) {
		case 0:
			where = first
		case 1:
			where = first + " AND " + atom()
		default:
			where = first + " OR " + atom()
		}
		q := fmt.Sprintf("SELECT %s FROM T1 WHERE %s", sel, where)
		if sel == "url" {
			q += " LIMIT 100"
		}
		out = append(out, q)
	}
	return out
}

// streamResult is one run of a query stream.
type streamResult struct {
	// windowThroughput is the per-window mean simulated throughput in
	// queries per simulated second.
	windowThroughput []float64
	totalSim         time.Duration
}

// runStream executes the queries sequentially, recording per-window means.
func runStream(sys *feisu.System, queries []string, window int) (*streamResult, error) {
	ctx := context.Background()
	res := &streamResult{}
	var winSim time.Duration
	inWin := 0
	for _, q := range queries {
		_, stats, err := sys.QueryStats(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", q, err)
		}
		res.totalSim += stats.SimTime
		winSim += stats.SimTime
		inWin++
		if inWin == window {
			res.windowThroughput = append(res.windowThroughput, float64(inWin)/winSim.Seconds())
			winSim, inWin = 0, 0
		}
	}
	if inWin > 0 {
		res.windowThroughput = append(res.windowThroughput, float64(inWin)/winSim.Seconds())
	}
	return res, nil
}

// Fig9a regenerates "scan performance with and without SmartIndex": the
// per-window throughput series as more queries are processed. Paper shape:
// the SmartIndex curve climbs as the index warms (>3x past the warm point)
// while the no-index curve stays flat.
func Fig9a(scale Scale) (*Report, error) {
	queries := scanQueries(scale.Queries, 42)

	withIdx, err := buildSystem(scale, nil)
	if err != nil {
		return nil, err
	}
	defer withIdx.Close()
	smart, err := runStream(withIdx, queries, scale.Window)
	if err != nil {
		return nil, err
	}

	noIdx, err := buildSystem(scale, func(c *feisu.Config) { c.Index = feisu.IndexNone })
	if err != nil {
		return nil, err
	}
	defer noIdx.Close()
	plain, err := runStream(noIdx, queries, scale.Window)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:      "fig9a",
		Title:   "Scan performance with and without SmartIndex",
		Headers: []string{"Queries processed", "SmartIndex (q/sim-s)", "No index (q/sim-s)", "Speedup"},
	}
	for i := range smart.windowThroughput {
		base := plain.windowThroughput[min(i, len(plain.windowThroughput)-1)]
		rep.Rows = append(rep.Rows, []string{
			d(int64((i + 1) * scale.Window)),
			f2(smart.windowThroughput[i]),
			f2(base),
			f2(smart.windowThroughput[i] / base),
		})
	}
	last := smart.windowThroughput[len(smart.windowThroughput)-1] /
		plain.windowThroughput[len(plain.windowThroughput)-1]
	first := smart.windowThroughput[0] / plain.windowThroughput[0]
	st := withIdx.IndexStats()
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("cold-window speedup %.2fx, warm-window speedup %.2fx (paper: >3x once warm)", first, last),
		fmt.Sprintf("index: %d hits, %d derived, %d misses, %d entries, %d bytes",
			st.Hits, st.DerivedHits, st.Misses, st.Entries, st.Bytes),
	)
	return rep, nil
}

// Fig9b adds the B-tree baseline: flat performance between the two curves
// (it avoids column re-reads but still pays per-query tree evaluation).
func Fig9b(scale Scale) (*Report, error) {
	queries := scanQueries(scale.Queries, 42)

	configs := []struct {
		name string
		mut  func(*feisu.Config)
	}{
		{"SmartIndex", nil},
		{"B-tree", func(c *feisu.Config) { c.Index = feisu.IndexBTree }},
		{"No index", func(c *feisu.Config) { c.Index = feisu.IndexNone }},
	}
	series := make([][]float64, len(configs))
	for i, cfg := range configs {
		sys, err := buildSystem(scale, cfg.mut)
		if err != nil {
			return nil, err
		}
		sr, err := runStream(sys, queries, scale.Window)
		sys.Close()
		if err != nil {
			return nil, err
		}
		series[i] = sr.windowThroughput
	}

	rep := &Report{
		ID:      "fig9b",
		Title:   "Comparison of SmartIndex and B-tree index",
		Headers: []string{"Queries processed", "SmartIndex (q/sim-s)", "B-tree (q/sim-s)", "No index (q/sim-s)"},
		Notes: []string{
			"paper shape: B-tree stays near-constant; SmartIndex overtakes it as the index warms",
		},
	}
	for i := range series[0] {
		row := []string{d(int64((i + 1) * scale.Window))}
		for _, s := range series {
			row = append(row, f2(s[min(i, len(s)-1)]))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
