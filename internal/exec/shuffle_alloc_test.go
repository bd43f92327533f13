//go:build !race

package exec

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/types"
)

// The shuffle's route, merge and join allocate per batch, not per row. The
// race detector allocates on its own account, so the budgets are checked
// only without it.

var allocSizes = []int{256, 4096}

// routeRows returns n map-output rows: two key columns and one shipped.
func routeRows(n int) [][]types.Value {
	rows := make([][]types.Value, n)
	for i := range rows {
		rows[i] = []types.Value{types.NewInt(int64(i)), types.NewString("region-" + string(rune('a'+i%26))), types.NewFloat(float64(i))}
	}
	return rows
}

// pushedGroups returns n distinct one-key groups with one cell each, as
// DecodeGroups hands them to PushGroups.
func pushedGroups(n int) []Group {
	groups := make([]Group, n)
	for i := range groups {
		groups[i] = Group{Keys: []types.Value{types.NewInt(int64(i))}, Cells: []Cell{{Count: 1, SumI: int64(i)}}}
	}
	return groups
}

// joinInput plans a select-mode repartition join and returns n build and n
// probe rows in its shipped layout, probe row i matching build row i only.
func joinInput(tb testing.TB, n int) (p *plan.PhysicalPlan, build, probe [][]types.Value) {
	h := newShuffleHarness(tb)
	p = h.plan("SELECT o.amt, i.price FROM orders o JOIN items i ON o.k = i.k", forceShuffle())
	sh := p.Shuffle
	row := func(i, ship int) []types.Value {
		r := make([]types.Value, sh.Keys+ship)
		for c := range r {
			r[c] = types.NewInt(int64(i))
		}
		return r
	}
	for i := 0; i < n; i++ {
		build = append(build, row(i, len(sh.BuildCols)))
		probe = append(probe, row(i, len(sh.ProbeCols)))
	}
	return p, build, probe
}

func runJoin(tb testing.TB, p *plan.PhysicalPlan, build, probe [][]types.Value) *TaskResult {
	j := NewPartitionedHashJoin(p, nil, ShuffleBilling{})
	if err := j.PushBuild(build); err != nil {
		tb.Fatal(err)
	}
	if err := j.PushProbe(probe); err != nil {
		tb.Fatal(err)
	}
	tr, err := j.Flush()
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func pushGroups(tb testing.TB, groups []Group) *PartitionedAgg {
	a := NewPartitionedAgg(1, 1<<30, nil, ShuffleBilling{})
	if err := a.PushGroups(groups); err != nil {
		tb.Fatal(err)
	}
	return a
}

func TestShuffleRouteAllocatesNothing(t *testing.T) {
	rows := routeRows(64)
	if n := testing.AllocsPerRun(10, func() {
		for _, r := range rows {
			ShufflePartition(r, 2, 4)
			GroupShufflePartition(r[:2], 4)
		}
	}); n != 0 {
		t.Fatalf("routing %d rows allocates %.0f times, want 0", len(rows), n)
	}
}

func TestPartitionedAggPushGroupsAllocsPerBatch(t *testing.T) {
	for _, n := range allocSizes {
		groups := pushedGroups(n)
		if a := pushGroups(t, groups); len(a.mem.M) != n {
			t.Fatalf("N=%d: %d groups merged", n, len(a.mem.M))
		}
		got := testing.AllocsPerRun(3, func() { pushGroups(t, groups) })
		if budget := float64(n/16 + 64); got > budget {
			t.Errorf("N=%d: PushGroups of new groups allocates %.0f times, budget %.0f", n, got, budget)
		}
	}
}

func TestPartitionedHashJoinAllocsPerBatch(t *testing.T) {
	for _, n := range allocSizes {
		p, build, probe := joinInput(t, n)
		if tr := runJoin(t, p, build, probe); len(tr.Rows) != n {
			t.Fatalf("N=%d: %d joined rows", n, len(tr.Rows))
		}
		// Output rows come from a slab, so nothing is allocated per row.
		got := testing.AllocsPerRun(3, func() { runJoin(t, p, build, probe) })
		if budget := float64(n/16 + 64); got > budget {
			t.Errorf("N=%d: joining %d x %d rows allocates %.0f times, budget %.0f", n, n, n, got, budget)
		}
	}
}

var routeSink int

func BenchmarkShuffleRoute(b *testing.B) {
	rows := routeRows(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rows {
			routeSink += ShufflePartition(r, 2, 4)
		}
	}
}

func BenchmarkPartitionedAggPushGroups(b *testing.B) {
	groups := pushedGroups(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pushGroups(b, groups)
	}
}

func BenchmarkPartitionedHashJoin(b *testing.B) {
	p, build, probe := joinInput(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runJoin(b, p, build, probe)
	}
}
