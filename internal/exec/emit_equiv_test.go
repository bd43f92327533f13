package exec_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/sqltest"
	"repro/internal/storage"
	"repro/internal/types"
)

// emitFixture is a fact table t of five 4-row blocks and a dimension d, laid
// out to reach every binding of the scan's emit loop: NULLs in the aggregated
// and grouping columns, NULL-free numeric columns, a repeated column (scalar position reads its first
// element, or NULL for an empty record), a string column for MIN/MAX, and a
// join key whose matches and misses alternate row by row.
type emitFixture struct {
	cat    plan.MapCatalog
	reader *exec.StoreReader
	dim    [][]types.Value // uid, city
	flat   []*sqltest.Table
}

func newEmitFixture(t testing.TB) *emitFixture {
	t.Helper()
	schema := types.MustSchema(
		types.Field{Name: "k", Type: types.String},
		types.Field{Name: "n", Type: types.Int64},
		types.Field{Name: "f", Type: types.Float64},
		types.Field{Name: "s", Type: types.String},
		types.Field{Name: "uid", Type: types.Int64},
		types.Field{Name: "w", Type: types.Float64},
		types.Field{Name: "r", Type: types.Int64, Repeated: true},
	)
	flatSchema := types.MustSchema(
		types.Field{Name: "k", Type: types.String},
		types.Field{Name: "n", Type: types.Int64},
		types.Field{Name: "f", Type: types.Float64},
		types.Field{Name: "s", Type: types.String},
		types.Field{Name: "uid", Type: types.Int64},
		types.Field{Name: "w", Type: types.Float64},
		types.Field{Name: "r", Type: types.Int64},
	)
	w := colstore.NewWriter(schema, 4)
	flat := &sqltest.Table{Name: "t", Schema: flatSchema}
	null := types.NullValue()
	for i := 0; i < 20; i++ {
		k, n, f := types.NewString(fmt.Sprintf("k%d", i%3)), types.NewInt(int64(i*7%11-3)), types.NewFloat(float64(i)*0.37-1.5)
		if i%5 == 4 {
			k = null
		}
		if i%4 == 1 {
			n = null
		}
		if i%6 == 2 {
			f = null
		}
		s, uid := types.NewString(fmt.Sprintf("s-%02d", (i*13)%20)), types.NewInt(int64(i%4)) // uids 0 and 2 have a dimension row
		wt := types.NewFloat(float64((i*7)%10-4) * 0.3)                                       // NULL-free, like uid: folded from the typed slice
		var r []types.Value
		for e := 0; e < i%3; e++ { // every third record is empty
			r = append(r, types.NewInt(int64(10*i+e)))
		}
		if err := w.AppendRecord([][]types.Value{{k}, {n}, {f}, {s}, {uid}, {wt}, r}); err != nil {
			t.Fatal(err)
		}
		first := null
		if len(r) > 0 {
			first = r[0]
		}
		flat.Rows = append(flat.Rows, types.Row{k, n, f, s, uid, wt, first})
	}
	meta, reader := storeTable(t, "t", schema, 20, w)
	dimSchema := types.MustSchema(types.Field{Name: "uid", Type: types.Int64}, types.Field{Name: "city", Type: types.String})
	dim := [][]types.Value{{types.NewInt(0), types.NewString("bj")}, {types.NewInt(2), types.NewString("sh")}}
	dimFlat := &sqltest.Table{Name: "d", Schema: dimSchema}
	for _, row := range dim {
		dimFlat.Rows = append(dimFlat.Rows, types.Row(row))
	}
	return &emitFixture{
		cat: plan.MapCatalog{
			"t": meta,
			"d": {Name: "d", Schema: dimSchema},
		},
		reader: reader,
		dim:    dim,
		flat:   []*sqltest.Table{flat, dimFlat},
	}
}

// run executes sql through the leaf scan with the given intra-task
// parallelism and index, and returns the finalized rows.
func (fx *emitFixture) run(t testing.TB, sql string, workers int, idx exec.IndexSource) [][]types.Value {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	p, err := plan.Plan(stmt, fx.cat)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	for _, d := range p.Dims {
		for _, row := range fx.dim {
			out := make([]types.Value, len(d.Needed))
			for i, c := range d.Needed {
				out[i] = row[d.Table.Meta.Schema.Index(c)]
			}
			d.Data = append(d.Data, out)
		}
	}
	var merged *exec.TaskResult
	for _, task := range p.Tasks() {
		task.Workers = workers
		tr, err := exec.RunTaskModel(context.Background(), task, fx.reader, idx, nil)
		if err != nil {
			t.Fatalf("run %q: %v", sql, err)
		}
		merged = exec.MergeResults(p, merged, tr)
	}
	res, err := exec.Finalize(p, merged)
	if err != nil {
		t.Fatalf("finalize %q: %v", sql, err)
	}
	return res.Rows
}

// render prints rows one per line, sorted unless the statement orders them.
func render(rows [][]types.Value, ordered bool) string {
	lines := make([]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		lines[i] = strings.Join(cells, " | ")
	}
	if !ordered {
		sort.Strings(lines)
	}
	return strings.Join(lines, "\n")
}

// TestEmitLoopMatchesReference runs every binding of the emit loop — typed
// column folds, Eval fallbacks, group keys, projections, the LIMIT early exit
// and the dimension cursor — against sqltest's naive executor: serially, over
// four stripes, cold and with a warm SmartIndex (where stripes finish on the
// task's goroutine until an aggregate needs its column).
func TestEmitLoopMatchesReference(t *testing.T) {
	fx := newEmitFixture(t)
	cases := []struct {
		name, sql string
		ordered   bool // row order is part of the answer
	}{
		{"nulls in aggregated column", "SELECT COUNT(n), SUM(n), MIN(n), MAX(n), AVG(n), COUNT(*) FROM t", false},
		{"null-free columns", "SELECT SUM(w), MIN(w), MAX(w), AVG(w), SUM(uid), MIN(uid), MAX(uid), COUNT(uid) FROM t WHERE n > -2", false},
		{"nulls in float column", "SELECT COUNT(f), SUM(f), MIN(f), MAX(f), AVG(f) FROM t WHERE n > -2", false},
		{"all rows of a block null", "SELECT SUM(n), MIN(n) FROM t WHERE uid = 1", false},
		{"repeated column as argument", "SELECT SUM(r), COUNT(r), MIN(r), MAX(r) FROM t", false},
		{"repeated column as group key", "SELECT r, COUNT(*), SUM(n) FROM t GROUP BY r", false},
		{"null group key", "SELECT k, COUNT(*), SUM(f), MAX(s) FROM t GROUP BY k", false},
		{"two group keys, one an expression", "SELECT k, n % 2, COUNT(*), MIN(f) FROM t WHERE n >= 0 GROUP BY k, n % 2", false},
		{"min max over strings", "SELECT MIN(s), MAX(s) FROM t WHERE f > 0", false},
		{"expression beside column arguments", "SELECT SUM(n * 2), SUM(n), SUM(n * f), COUNT(*), AVG(f) FROM t WHERE n != 1", false},
		{"division promotes to float and nulls on zero", "SELECT SUM(n / (uid - 1)), COUNT(n / (uid - 1)) FROM t", false},
		{"projection of columns and expressions", "SELECT s, n, f, r, n + 1 FROM t WHERE f <= 2", false},
		{"limit inside the first block", "SELECT s, n FROM t LIMIT 2", true},
		{"limit on a block boundary", "SELECT s, n FROM t LIMIT 4", true},
		{"limit across a block boundary", "SELECT s, r FROM t WHERE n > 0 LIMIT 6", true},
		{"limit beyond the table", "SELECT s FROM t WHERE uid = 3 LIMIT 50", true},
		{"left outer rows alternate match and miss", "SELECT t.s, t.uid, d.city FROM t LEFT OUTER JOIN d ON t.uid = d.uid", false},
		{"left outer grouped by a dimension column", "SELECT d.city, COUNT(*), SUM(t.n) FROM t LEFT OUTER JOIN d ON t.uid = d.uid GROUP BY d.city", false},
		{"inner join with a post filter", "SELECT d.city, MAX(t.s), COUNT(t.n) FROM t JOIN d ON t.uid = d.uid WHERE t.f > -1 GROUP BY d.city", false},
		{"no rows selected", "SELECT SUM(n), COUNT(*) FROM t WHERE n > 1000", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := sqltest.Run(tc.sql, fx.flat...)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			want := render(ref.Rows, tc.ordered)
			idx := core.New(core.Options{})
			for _, run := range []struct {
				name    string
				workers int
				idx     exec.IndexSource
			}{{"serial", 1, nil}, {"four stripes", 4, nil}, {"cold index", 4, idx}, {"warm index", 4, idx}, {"warm index serial", 1, idx}} {
				if got := render(fx.run(t, tc.sql, run.workers, run.idx), tc.ordered); got != want {
					t.Errorf("%s:\n%s\nreference:\n%s", run.name, got, want)
				}
			}
		})
	}
}

// allocFixture is one partition of a single block with rows rows: column sel
// is 1 on the first 64 rows and 0 elsewhere, g is constant.
func allocFixture(t testing.TB, rows, blockRows int) (plan.MapCatalog, *exec.StoreReader) {
	t.Helper()
	schema := types.MustSchema(
		types.Field{Name: "sel", Type: types.Int64},
		types.Field{Name: "g", Type: types.Int64},
		types.Field{Name: "v", Type: types.Float64},
	)
	w := colstore.NewWriter(schema, blockRows)
	for i := 0; i < rows; i++ {
		sel := int64(0)
		if i < 64 {
			sel = 1
		}
		if err := w.Append(types.Row{types.NewInt(sel), types.NewInt(7), types.NewFloat(float64(i) / 8)}); err != nil {
			t.Fatal(err)
		}
	}
	meta, reader := storeTable(t, "a", schema, int64(rows), w)
	return plan.MapCatalog{"a": meta}, reader
}

// storeTable finishes w as the table's one partition on an in-memory store.
func storeTable(t testing.TB, name string, schema *types.Schema, rows int64, w *colstore.Writer) (*plan.TableMeta, *exec.StoreReader) {
	t.Helper()
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	router, path := storage.NewRouter(storage.NewMemFS("", nil)), "/"+name+"/p0"
	if err := router.WriteFile(context.Background(), path, data); err != nil {
		t.Fatal(err)
	}
	meta := &plan.TableMeta{Name: name, Schema: schema, Partitions: []plan.PartitionMeta{{Path: path, Rows: rows, Bytes: int64(len(data))}}}
	return meta, exec.NewStoreReader(router)
}

// taskAllocs is the allocation count of one serial leaf task of sql.
func taskAllocs(t *testing.T, cat plan.MapCatalog, rd exec.PartitionReader, idx exec.IndexSource, sql string) float64 {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Plan(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	task := p.Tasks()[0]
	task.Workers = 1
	ctx := context.Background()
	run := func() {
		if _, err := exec.RunTaskModel(ctx, task, rd, idx, nil); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: footer cached, index filled
	return testing.AllocsPerRun(20, run)
}

// TestWarmCountStarAllocsIndependentOfBlocks: a fully indexed COUNT(*) task
// allocates a small constant, whatever the number of blocks it answers.
func TestWarmCountStarAllocsIndependentOfBlocks(t *testing.T) {
	const sql = "SELECT COUNT(*) FROM a WHERE sel = 1 AND v >= 0"
	var got []float64
	for _, blocks := range []int{2, 32} {
		cat, rd := allocFixture(t, blocks*64, 64)
		got = append(got, taskAllocs(t, cat, rd, core.New(core.Options{}), sql))
	}
	if got[0] != got[1] || got[0] > 24 {
		t.Fatalf("allocations per warm task: %v over 2 blocks, %v over 32; want equal and at most 24", got[0], got[1])
	}
}

// TestEmitAllocsIndependentOfSelectedRows: an ungrouped SUM and a GROUP BY
// into one existing group allocate per task and per block, never per row.
func TestEmitAllocsIndependentOfSelectedRows(t *testing.T) {
	cat, rd := allocFixture(t, 4096, 4096)
	for _, sql := range []string{
		"SELECT SUM(v), MIN(v), COUNT(*) FROM a WHERE sel %s",
		"SELECT SUM(v + 1) FROM a WHERE sel %s",
		"SELECT g, SUM(v), COUNT(*) FROM a WHERE sel %s GROUP BY g",
	} {
		few := taskAllocs(t, cat, rd, nil, fmt.Sprintf(sql, ">= 1"))
		all := taskAllocs(t, cat, rd, nil, fmt.Sprintf(sql, ">= 0"))
		if few != all {
			t.Errorf("%s: %v allocations over 64 selected rows, %v over 4096", sql, few, all)
		}
	}
}
