//go:build !race

package exec

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// rowsTask plans sql over a table a of two partitions, each one block of
// 4 096 rows (x BIGINT, s STRING), and returns the first partition's task.
func rowsTask(t *testing.T, sql string) (plan.TaskSpec, PartitionReader) {
	t.Helper()
	router := storage.NewRouter(storage.NewMemFS("", nil))
	h := &shuffleHarness{t: t, cat: plan.MapCatalog{}, reader: NewStoreReader(router)}
	schema := types.MustSchema(types.Field{Name: "x", Type: types.Int64}, types.Field{Name: "s", Type: types.String})
	h.writeTable(router, "a", schema, 4096, func(add func([][]types.Value)) {
		for i := 0; i < 2*4096; i++ {
			add([][]types.Value{{types.NewInt(int64(i))}, {types.NewString(fmt.Sprintf("s%d", i%100))}})
		}
	})
	return h.plan(sql, plan.Options{}).Tasks()[0], h.reader
}

// A select-mode task allocates per block, not per output row: its rows are
// cut from one slab sized by the block's selection.
func TestScanRowsAllocatePerBlock(t *testing.T) {
	task, rd := rowsTask(t, "SELECT x, s FROM a WHERE x >= 0")
	run := func() *TaskResult {
		res, err := RunTaskModel(context.Background(), task, rd, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if n := len(run().Rows); n != 4096 {
		t.Fatalf("%d rows, want 4096", n)
	}
	if n := testing.AllocsPerRun(5, func() { run() }); n > 64 {
		t.Errorf("emitting 4096 rows allocates %.0f times, want at most 64", n)
	}

	// Under LIMIT 50 the slab holds exactly the 50 rows the limit leaves.
	task, rd = rowsTask(t, "SELECT x, s FROM a WHERE x >= 0 LIMIT 50")
	s, err := Bind(task.Plan, rd, nil, nil)
	if err == nil {
		err = s.begin(context.Background(), task.Partition, task.Plan.ScanLimit)
	}
	if err != nil {
		t.Fatal(err)
	}
	part := &s.part
	if done, err := s.scanBlock(0); err != nil || !done {
		t.Fatalf("scanBlock: done %v, err %v", done, err)
	}
	if len(part.rows) != 50 || part.slab == nil || len(part.slab) != 0 {
		t.Fatalf("%d rows, %d values of slab left over; want 50 rows and none left", len(part.rows), len(part.slab))
	}
	first, size := unsafe.Pointer(&part.rows[0][0]), unsafe.Sizeof(types.Value{})
	for i, row := range part.rows {
		if len(row) != 2 || cap(row) != 2 || unsafe.Pointer(&row[0]) != unsafe.Add(first, uintptr(2*i)*size) {
			t.Fatalf("row %d is not the slab's row %d", i, i)
		}
	}
}

// Slab rows are independent: appending to one leaves the next unchanged, and
// a width-0 row is empty, not nil, so it round-trips through the batch codec
// as itself.
func TestSlabRowsAreIndependent(t *testing.T) {
	var slab []types.Value
	a, b := cut(&slab, 2, 2), cut(&slab, 2, 3) // one two-row chunk
	b[0], b[1] = types.NewInt(1), types.NewInt(2)
	a = append(a, types.NewInt(9))
	if b[0] != types.NewInt(1) || b[1] != types.NewInt(2) || len(a) != 3 {
		t.Fatalf("appending to row 0 changed row 1: %v", b)
	}
	var empty []types.Value
	rows := [][]types.Value{cut(&empty, 0, 0), cut(&empty, 0, 1)}
	back, err := types.ReadAll(types.AppendRows(nil, rows), (*types.Reader).Rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i] == nil || back[i] == nil || len(back[i]) != 0 {
			t.Fatalf("width-0 row %d: cut %#v, round-trips as %#v", i, rows[i], back[i])
		}
	}
}

// A column read allocates its decoded vector and little else: the range read
// is a view of the stored block, not a copy of the extent. A DOUBLE extent is
// as large as its decoded vector, so a copy would double the bytes.
func TestColumnReadAllocatesOnlyTheDecodedVector(t *testing.T) {
	const rows = 4096
	ctx := context.Background()
	w := colstore.NewWriter(types.MustSchema(types.Field{Name: "f", Type: types.Float64}), rows)
	for i := 0; i < rows; i++ {
		if err := w.Append(types.Row{types.NewFloat(float64(i) / 7)}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []storage.Store{storage.NewHDFS("hdfs", nil), storage.NewMemFS("mem", nil)} {
		if d, ok := s.(*storage.DFS); ok {
			d.AddNode("n0", "r0")
		}
		router := storage.NewRouter(nil)
		router.Register(s)
		path := "/" + s.Scheme() + "/t/p0"
		if err := router.WriteFile(ctx, path, data); err != nil {
			t.Fatal(err)
		}
		sr := NewStoreReader(router)
		meta, err := sr.Meta(ctx, plan.PartitionMeta{Path: path})
		if err != nil {
			t.Fatal(err)
		}
		const reads = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range reads {
			if _, err := sr.Column(ctx, path, meta, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perRead, limit := (after.TotalAlloc-before.TotalAlloc)/reads, uint64(8*rows+1024)
		if perRead > limit {
			t.Errorf("%s: a column read allocates %d bytes, want at most the %d-byte vector plus 1 KiB", s.Scheme(), perRead, 8*rows)
		}
	}
}
