package exec

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/types"
)

// evenBlocksIndex keeps what it is offered for even blocks only, so that half
// of a task's stripes stay answerable from bitmaps and half never are.
type evenBlocksIndex struct{ *mapIndex }

func (x evenBlocksIndex) Store(blockID string, a plan.Atom, bm *bitmap.Bitmap, st colstore.Stats) {
	if (blockID[len(blockID)-1]-'0')%2 == 0 {
		x.mapIndex.Store(blockID, a, bm, st)
	}
}

// stripeTask plans sql over one partition of eight 8-row blocks.
func stripeTask(t *testing.T, sql string) (plan.TaskSpec, *StoreReader) {
	t.Helper()
	schema := types.MustSchema(
		types.Field{Name: "clicks", Type: types.Int64},
		types.Field{Name: "score", Type: types.Float64},
	)
	w := colstore.NewWriter(schema, 8)
	for i := 0; i < 64; i++ {
		if err := w.Append(types.Row{types.NewInt(int64(i % 7)), types.NewFloat(1 / float64(i+3))}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	router := storage.NewRouter(storage.NewMemFS("", nil))
	if err := router.WriteFile(context.Background(), "/s/p0", data); err != nil {
		t.Fatal(err)
	}
	cat := plan.MapCatalog{"s": {Name: "s", Schema: schema, Partitions: []plan.PartitionMeta{{Path: "/s/p0", Rows: 64, Bytes: int64(len(data))}}}}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Plan(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	return p.Tasks()[0], NewStoreReader(router)
}

// TestStripesInlineAndSpawned: with four stripes of which two are answered
// from bitmaps and two have to read, the first two finish on the task's
// goroutine and the other two on their own — and result, statistics and
// simulated bill are those of the serial scan, bit for bit.
func TestStripesInlineAndSpawned(t *testing.T) {
	model := sim.DefaultCostModel()
	for _, tc := range []struct {
		sql         string
		wantSpawned int
	}{
		{"SELECT COUNT(*) FROM s WHERE clicks > 2 AND score <= 0.1", 2},        // odd-block stripes read to evaluate
		{"SELECT COUNT(*) FROM s WHERE clicks > 100", 0},                       // footers prune every block
		{"SELECT SUM(score), MIN(score), COUNT(*) FROM s WHERE clicks > 2", 4}, // every stripe reads score to aggregate
		{"SELECT clicks, SUM(score) FROM s WHERE score <= 0.1 GROUP BY clicks", 4},
	} {
		task, rd := stripeTask(t, tc.sql)
		idx := evenBlocksIndex{newMapIndex()}
		run := func(workers int) (*TaskResult, int, *sim.Bill) {
			bill := sim.NewBill()
			ctx := storage.WithBill(context.Background(), bill)
			s, err := newScanner(ctx, task, rd, idx, model)
			if err != nil {
				t.Fatal(err)
			}
			if workers <= 1 {
				task.Workers = 1
				res, err := RunTaskModel(ctx, task, rd, idx, model)
				if err != nil {
					t.Fatal(err)
				}
				return res, 0, bill
			}
			res := &TaskResult{Groups: NewGroups(len(task.Plan.Aggs))}
			spawned, err := s.scanParallel(ctx, workers, res)
			if err != nil {
				t.Fatal(err)
			}
			return res, spawned, bill
		}
		run(1) // warm the even blocks
		serial, _, serialBill := run(1)
		par, spawned, parBill := run(4)
		if spawned != tc.wantSpawned {
			t.Errorf("%s: %d of 4 stripes left the task's goroutine, want %d", tc.sql, spawned, tc.wantSpawned)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("%s: four stripes differ from the serial scan:\n%+v\n%+v", tc.sql, par, serial)
		}
		if serial.Stats.IndexHits == 0 && tc.wantSpawned == 2 {
			t.Errorf("%s: the warm blocks were not answered from the index: %+v", tc.sql, serial.Stats)
		}
		for d := sim.DeviceHDD; d <= sim.DeviceCold; d++ {
			if serialBill.Bytes(d) != parBill.Bytes(d) {
				t.Errorf("%s: device %v billed %d bytes over four stripes, %d serially", tc.sql, d, parBill.Bytes(d), serialBill.Bytes(d))
			}
		}
	}
}

// TestFoldFlatMatchesUpdate: the typed fold leaves a cell exactly as
// Cell.Update row by row does — sums in row order, a leading NaN kept as
// both extremes, negative zero — and declines whatever it cannot do the same
// way (NULLs, a repeated column, a cell that already holds a value, so that
// an int sum promoted mid-way goes through Update).
func TestFoldFlatMatchesUpdate(t *testing.T) {
	sel := bitmap.New(6)
	for _, r := range []int{0, 2, 3, 5} {
		sel.Set(r)
	}
	byUpdate := func(cell Cell, c *colstore.Column) Cell {
		sel.ForEachSet(func(r int) { cell.Update(c.Value(r), false) })
		return cell
	}
	cols := map[string]*colstore.Column{
		"ints":      {Type: types.Int64, Ints: []int64{5, 99, -3, math.MaxInt64, 99, 7}},
		"floats":    {Type: types.Float64, Floats: []float64{0.1, 99, 0.2, -0.3, 99, 1e300}},
		"nan first": {Type: types.Float64, Floats: []float64{math.NaN(), 99, 1, -1, 99, 2}},
		"nan later": {Type: types.Float64, Floats: []float64{1, 99, math.NaN(), -1, 99, 2}},
		"neg zero":  {Type: types.Float64, Floats: []float64{math.Copysign(0, -1), 99, 0, 0, 99, 0}},
	}
	for name, c := range cols {
		var got Cell
		if !foldFlat(&got, c, sel) {
			t.Fatalf("%s: not folded", name)
		}
		want := byUpdate(Cell{}, c)
		// NaN != NaN: compare the bits.
		if got.Count != want.Count || got.SumI != want.SumI || got.Float != want.Float ||
			math.Float64bits(got.SumF) != math.Float64bits(want.SumF) ||
			math.Float64bits(got.Min.F) != math.Float64bits(want.Min.F) || got.Min.I != want.Min.I || got.Min.T != want.Min.T ||
			math.Float64bits(got.Max.F) != math.Float64bits(want.Max.F) || got.Max.I != want.Max.I || got.Max.T != want.Max.T {
			t.Errorf("%s: folded %+v, updated %+v", name, got, want)
		}
	}
	nulls := bitmap.New(6)
	nulls.Set(2)
	var started Cell
	started.Update(types.NewInt(4), false)
	for name, tc := range map[string]struct {
		cell Cell
		col  *colstore.Column
	}{
		"nulls":          {Cell{}, &colstore.Column{Type: types.Int64, Ints: make([]int64, 6), Nulls: nulls}},
		"repeated":       {Cell{}, &colstore.Column{Type: types.Int64, Ints: make([]int64, 6), Offsets: []int32{0, 1, 2, 3, 4, 5, 6}}},
		"strings":        {Cell{}, &colstore.Column{Type: types.String, Strs: make([]string, 6)}},
		"non-empty cell": {started, cols["floats"]},
	} {
		cell := tc.cell
		if foldFlat(&cell, tc.col, sel) || cell != tc.cell {
			t.Errorf("%s: folded from the typed slice (cell %+v)", name, cell)
		}
	}
	if got := byUpdate(started, cols["floats"]); !got.Float || got.Count != 5 {
		t.Errorf("int sum not promoted mid-way: %+v", got)
	}
}
