package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/types"
)

// harness builds an in-memory two-table catalog and runs SQL end to end.
type harness struct {
	t      *testing.T
	cat    plan.MapCatalog
	router *storage.Router
	reader *StoreReader
	idx    IndexSource
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	router := storage.NewRouter(storage.NewMemFS("", nil))
	h := &harness{t: t, cat: plan.MapCatalog{}, router: router, reader: NewStoreReader(router)}

	// Fact table: search logs with a repeated click.pos column.
	logs := types.MustSchema(
		types.Field{Name: "query", Type: types.String},
		types.Field{Name: "url", Type: types.String},
		types.Field{Name: "clicks", Type: types.Int64},
		types.Field{Name: "score", Type: types.Float64},
		types.Field{Name: "uid", Type: types.Int64},
		types.Field{Name: "click.pos", Type: types.Int64, Repeated: true},
	)
	w := colstore.NewWriter(logs, 4) // small blocks exercise pruning
	rows := []struct {
		query  string
		url    string
		clicks int64
		score  float64
		uid    int64
		pos    []int64
	}{
		{"weather", "http://a", 1, 0.9, 1, []int64{1, 3}},
		{"weather", "http://b", 5, 0.5, 2, []int64{2}},
		{"music", "http://c", 3, 0.1, 1, nil},
		{"spam offer", "http://d", 0, 0.0, 3, []int64{9}},
		{"news", "http://e", 8, 0.7, 2, []int64{1}},
		{"news", "http://f", 2, 0.3, 9, nil}, // uid 9 has no user row
		{"maps", "http://g", 7, 0.6, 1, []int64{4, 5, 6}},
		{"maps", "http://h", 4, 0.2, 3, nil},
	}
	for _, r := range rows {
		rec := [][]types.Value{
			{types.NewString(r.query)},
			{types.NewString(r.url)},
			{types.NewInt(r.clicks)},
			{types.NewFloat(r.score)},
			{types.NewInt(r.uid)},
			nil,
		}
		for _, p := range r.pos {
			rec[5] = append(rec[5], types.NewInt(p))
		}
		if err := w.AppendRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := router.WriteFile(ctx, "/logs/p0", data); err != nil {
		t.Fatal(err)
	}
	h.cat["logs"] = &plan.TableMeta{Name: "logs", Schema: logs, Partitions: []plan.PartitionMeta{
		{Path: "/logs/p0", Rows: int64(len(rows)), Bytes: int64(len(data))},
	}}

	// Dimension: users.
	users := types.MustSchema(
		types.Field{Name: "uid", Type: types.Int64},
		types.Field{Name: "city", Type: types.String},
		types.Field{Name: "vip", Type: types.Bool},
	)
	h.cat["users"] = &plan.TableMeta{Name: "users", Schema: users}
	return h
}

// userRows is the broadcast dimension data, aligned to Needed columns.
func (h *harness) userData(needed []string) [][]types.Value {
	full := map[string][]types.Value{
		"uid":  {types.NewInt(1), types.NewInt(2), types.NewInt(3)},
		"city": {types.NewString("bj"), types.NewString("sh"), types.NewString("bj")},
		"vip":  {types.NewBool(true), types.NewBool(false), types.NewBool(false)},
	}
	out := make([][]types.Value, 3)
	for r := 0; r < 3; r++ {
		row := make([]types.Value, len(needed))
		for i, c := range needed {
			row[i] = full[c][r]
		}
		out[r] = row
	}
	return out
}

// run plans and executes sql over the harness tables.
func (h *harness) run(sql string) (*Result, *TaskResult) {
	h.t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		h.t.Fatalf("parse %q: %v", sql, err)
	}
	p, err := plan.Plan(stmt, h.cat)
	if err != nil {
		h.t.Fatalf("plan %q: %v", sql, err)
	}
	for _, d := range p.Dims {
		if d.Table.Meta.Name == "users" {
			d.Data = h.userData(d.Needed)
		}
	}
	ctx := context.Background()
	var merged *TaskResult
	for _, task := range p.Tasks() {
		tr, err := RunTask(ctx, task, h.reader, h.idx)
		if err != nil {
			h.t.Fatalf("run %q: %v", sql, err)
		}
		merged = MergeResults(p, merged, tr)
	}
	res, err := Finalize(p, merged)
	if err != nil {
		h.t.Fatalf("finalize %q: %v", sql, err)
	}
	return res, merged
}

func intAt(t *testing.T, res *Result, r, c int) int64 {
	t.Helper()
	v := res.Rows[r][c]
	if v.T != types.Int64 {
		t.Fatalf("row %d col %d = %v, want int", r, c, v)
	}
	return v.I
}

func TestScanCountStar(t *testing.T) {
	h := newHarness(t)
	res, _ := h.run("SELECT COUNT(*) FROM logs")
	if len(res.Rows) != 1 || intAt(t, res, 0, 0) != 8 {
		t.Errorf("count = %+v", res.Rows)
	}
}

func TestScanFilterAtoms(t *testing.T) {
	h := newHarness(t)
	res, _ := h.run("SELECT COUNT(*) FROM logs WHERE clicks > 2 AND clicks <= 7")
	// clicks: 1,5,3,0,8,2,7,4 -> in (2,7]: 5,3,7,4 = 4 rows.
	if intAt(t, res, 0, 0) != 4 {
		t.Errorf("count = %+v", res.Rows)
	}
}

func TestScanProjectionAndOrder(t *testing.T) {
	h := newHarness(t)
	res, _ := h.run("SELECT url, clicks FROM logs WHERE clicks >= 7 ORDER BY clicks DESC")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if res.Rows[0][0].S != "http://e" || res.Rows[1][0].S != "http://g" {
		t.Errorf("order = %+v", res.Rows)
	}
	if res.Columns[0] != "url" || res.Columns[1] != "clicks" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestScanContains(t *testing.T) {
	h := newHarness(t)
	res, _ := h.run("SELECT COUNT(*) FROM logs WHERE query CONTAINS 'spam'")
	if intAt(t, res, 0, 0) != 1 {
		t.Errorf("contains = %+v", res.Rows)
	}
	res, _ = h.run("SELECT COUNT(*) FROM logs WHERE NOT (query CONTAINS 'spam')")
	if intAt(t, res, 0, 0) != 7 {
		t.Errorf("not contains = %+v", res.Rows)
	}
}

func TestScanOrClause(t *testing.T) {
	h := newHarness(t)
	res, _ := h.run("SELECT COUNT(*) FROM logs WHERE clicks = 8 OR score > 0.8")
	// clicks=8 (e), score 0.9 (a) -> 2.
	if intAt(t, res, 0, 0) != 2 {
		t.Errorf("or = %+v", res.Rows)
	}
}

func TestScanBangNegationPaperQ11(t *testing.T) {
	h := newHarness(t)
	// Fig. 7's rewrite: c > 0 AND !(c > 5)  ==  c in (0,5].
	res, _ := h.run("SELECT COUNT(*) FROM logs WHERE clicks > 0 AND !(clicks > 5)")
	// clicks in (0,5]: 1,5,3,2,4 = 5.
	if intAt(t, res, 0, 0) != 5 {
		t.Errorf("count = %+v", res.Rows)
	}
}

func TestGroupByHavingOrderLimit(t *testing.T) {
	h := newHarness(t)
	res, _ := h.run("SELECT query, COUNT(*) AS n, SUM(clicks) AS s FROM logs GROUP BY query HAVING COUNT(*) > 1 ORDER BY s DESC LIMIT 2")
	// groups with count>1: weather(2, sum 6), news(2, sum 10), maps(2, sum 11).
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if res.Rows[0][0].S != "maps" || intAt(t, res, 0, 2) != 11 {
		t.Errorf("row0 = %+v", res.Rows[0])
	}
	if res.Rows[1][0].S != "news" || intAt(t, res, 1, 2) != 10 {
		t.Errorf("row1 = %+v", res.Rows[1])
	}
}

func TestAggFunctions(t *testing.T) {
	h := newHarness(t)
	res, _ := h.run("SELECT COUNT(*), SUM(clicks), MIN(clicks), MAX(clicks), AVG(clicks) FROM logs")
	row := res.Rows[0]
	if row[0].I != 8 || row[1].I != 30 || row[2].I != 0 || row[3].I != 8 {
		t.Errorf("aggs = %+v", row)
	}
	if row[4].T != types.Float64 || row[4].F != 3.75 {
		t.Errorf("avg = %+v", row[4])
	}
}

func TestAggEmptyInput(t *testing.T) {
	h := newHarness(t)
	res, _ := h.run("SELECT COUNT(*), SUM(clicks) FROM logs WHERE clicks > 1000")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("empty agg = %+v", res.Rows)
	}
}

func TestGroupByEmptyYieldsNoRows(t *testing.T) {
	h := newHarness(t)
	res, _ := h.run("SELECT query, COUNT(*) FROM logs WHERE clicks > 1000 GROUP BY query")
	if len(res.Rows) != 0 {
		t.Errorf("rows = %+v", res.Rows)
	}
}

func TestInnerJoin(t *testing.T) {
	h := newHarness(t)
	res, _ := h.run("SELECT city, COUNT(*) AS n FROM logs, users WHERE logs.uid = users.uid GROUP BY city ORDER BY n DESC")
	// uid1 x3 (bj), uid2 x2 (sh), uid3 x2 (bj), uid9 dropped -> bj 5, sh 2.
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if res.Rows[0][0].S != "bj" || intAt(t, res, 0, 1) != 5 {
		t.Errorf("row0 = %+v", res.Rows[0])
	}
	if res.Rows[1][0].S != "sh" || intAt(t, res, 1, 1) != 2 {
		t.Errorf("row1 = %+v", res.Rows[1])
	}
}

func TestLeftOuterJoin(t *testing.T) {
	h := newHarness(t)
	res, _ := h.run("SELECT COUNT(*) FROM logs LEFT JOIN users ON logs.uid = users.uid")
	if intAt(t, res, 0, 0) != 8 { // all fact rows preserved
		t.Errorf("left join count = %+v", res.Rows)
	}
	res, _ = h.run("SELECT url FROM logs LEFT JOIN users ON logs.uid = users.uid WHERE users.city = 'sh' ORDER BY url")
	if len(res.Rows) != 2 || res.Rows[0][0].S != "http://b" || res.Rows[1][0].S != "http://e" {
		t.Errorf("sh rows = %+v", res.Rows)
	}
}

func TestJoinResidualCondition(t *testing.T) {
	h := newHarness(t)
	res, _ := h.run("SELECT COUNT(*) FROM logs JOIN users ON logs.uid = users.uid AND users.vip = TRUE")
	// Only uid 1 is vip: 3 fact rows.
	if intAt(t, res, 0, 0) != 3 {
		t.Errorf("residual join = %+v", res.Rows)
	}
}

func TestCrossJoin(t *testing.T) {
	h := newHarness(t)
	res, _ := h.run("SELECT COUNT(*) FROM logs CROSS JOIN users")
	if intAt(t, res, 0, 0) != 24 { // 8 x 3
		t.Errorf("cross = %+v", res.Rows)
	}
}

func TestWithinRecordAggregation(t *testing.T) {
	h := newHarness(t)
	res, _ := h.run("SELECT url, COUNT(click.pos) WITHIN RECORD AS nclicks FROM logs WHERE clicks = 7")
	// http://g has click.pos [4,5,6].
	if len(res.Rows) != 1 || intAt(t, res, 0, 1) != 3 {
		t.Errorf("within = %+v", res.Rows)
	}
	res, _ = h.run("SELECT SUM(click.pos) WITHIN RECORD FROM logs WHERE url = 'http://a'")
	if intAt(t, res, 0, 0) != 4 { // 1+3
		t.Errorf("within sum = %+v", res.Rows)
	}
}

func TestRepeatedColumnAtomAnySemantics(t *testing.T) {
	h := newHarness(t)
	res, _ := h.run("SELECT COUNT(*) FROM logs WHERE click.pos > 4")
	// records with any pos>4: d(9), g(5,6) -> 2.
	if intAt(t, res, 0, 0) != 2 {
		t.Errorf("repeated atom = %+v", res.Rows)
	}
}

func TestSelectLimitEarlyStop(t *testing.T) {
	h := newHarness(t)
	res, merged := h.run("SELECT url FROM logs LIMIT 3")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if merged.Stats.RowsEmitted != 3 {
		t.Errorf("emitted = %d, want early stop at 3", merged.Stats.RowsEmitted)
	}
}

func TestBlockPruningByStats(t *testing.T) {
	h := newHarness(t)
	// clicks per block (4 rows each): block0 has 0..5, block1 has 2..8.
	_, merged := h.run("SELECT COUNT(*) FROM logs WHERE clicks > 100")
	if merged.Stats.BlocksPruned != 2 {
		t.Errorf("pruned = %+v", merged.Stats)
	}
	if merged.Stats.ColumnReads != 0 {
		t.Errorf("pruned scan should read nothing, got %d reads", merged.Stats.ColumnReads)
	}
}

func TestArithmeticInOutputs(t *testing.T) {
	h := newHarness(t)
	res, _ := h.run("SELECT clicks * 2 + 1 AS x FROM logs WHERE url = 'http://c'")
	if intAt(t, res, 0, 0) != 7 {
		t.Errorf("arith = %+v", res.Rows)
	}
	res, _ = h.run("SELECT SUM(clicks) / COUNT(*) FROM logs")
	if res.Rows[0][0].T != types.Float64 || res.Rows[0][0].F != 3.75 {
		t.Errorf("expr over aggs = %+v", res.Rows[0])
	}
}

func TestSelectStar(t *testing.T) {
	h := newHarness(t)
	res, _ := h.run("SELECT * FROM logs WHERE clicks = 8")
	if len(res.Rows) != 1 || len(res.Columns) != 6 {
		t.Fatalf("star = %v rows, %v cols", len(res.Rows), res.Columns)
	}
	if res.Rows[0][1].S != "http://e" {
		t.Errorf("row = %+v", res.Rows[0])
	}
}

func TestDivisionByZeroYieldsNull(t *testing.T) {
	h := newHarness(t)
	res, _ := h.run("SELECT score / clicks FROM logs WHERE url = 'http://d'")
	if !res.Rows[0][0].IsNull() {
		t.Errorf("div by zero = %+v", res.Rows[0][0])
	}
}

// mapIndex is a trivial IndexSource for tests.
type mapIndex struct {
	mu sync.Mutex // parallel scan workers share the index
	m  map[string]*bitmap.Bitmap
}

func newMapIndex() *mapIndex { return &mapIndex{m: make(map[string]*bitmap.Bitmap)} }

func (mi *mapIndex) Lookup(_ context.Context, blockID string, a plan.Atom, n int) (*bitmap.Bitmap, bool) {
	mi.mu.Lock()
	bm, ok := mi.m[blockID+"|"+a.Key()]
	mi.mu.Unlock()
	if !ok || bm.Len() != n {
		return nil, false
	}
	if a.Negated { // test data is NULL-free; bit-NOT is sound here
		neg := bm.Clone()
		neg.Not()
		return neg, true
	}
	return bm, true
}

func (mi *mapIndex) Store(blockID string, a plan.Atom, bm *bitmap.Bitmap, _ colstore.Stats) {
	mi.mu.Lock()
	defer mi.mu.Unlock()
	mi.m[blockID+"|"+a.Key()] = bm.Clone() // Store's contract: copy if retained
}

func TestIndexAvoidsColumnReads(t *testing.T) {
	h := newHarness(t)
	h.idx = newMapIndex()
	_, first := h.run("SELECT COUNT(*) FROM logs WHERE clicks > 2")
	if first.Stats.IndexMisses == 0 || first.Stats.ColumnReads == 0 {
		t.Fatalf("first run should miss and read: %+v", first.Stats)
	}
	_, second := h.run("SELECT COUNT(*) FROM logs WHERE clicks > 2")
	if second.Stats.IndexHits == 0 || second.Stats.IndexMisses != 0 {
		t.Errorf("second run should hit: %+v", second.Stats)
	}
	if second.Stats.ColumnReads != 0 {
		t.Errorf("second run should read no columns, got %d", second.Stats.ColumnReads)
	}
	if second.Stats.ShortCircuits == 0 {
		t.Errorf("fully indexed COUNT(*) should short-circuit: %+v", second.Stats)
	}
}

func TestIndexNegatedContains(t *testing.T) {
	h := newHarness(t)
	h.idx = newMapIndex()
	r1, _ := h.run("SELECT COUNT(*) FROM logs WHERE query CONTAINS 'spam'")
	r2, second := h.run("SELECT COUNT(*) FROM logs WHERE NOT (query CONTAINS 'spam')")
	if r1.Rows[0][0].I+r2.Rows[0][0].I != 8 {
		t.Errorf("complement counts: %v + %v", r1.Rows[0][0], r2.Rows[0][0])
	}
	if second.Stats.IndexHits == 0 {
		t.Errorf("negated form should hit the positive index: %+v", second.Stats)
	}
}

func TestMergeResultsSelectLimit(t *testing.T) {
	h := newHarness(t)
	stmt, _ := sqlparser.Parse("SELECT url FROM logs LIMIT 2")
	p, err := plan.Plan(stmt, h.cat)
	if err != nil {
		t.Fatal(err)
	}
	a := &TaskResult{Rows: [][]types.Value{{types.NewString("x")}, {types.NewString("y")}}}
	b := &TaskResult{Rows: [][]types.Value{{types.NewString("z")}}}
	m := MergeResults(p, a, b)
	if len(m.Rows) != 2 {
		t.Errorf("merged rows = %d", len(m.Rows))
	}
	if MergeResults(p, nil, b) != b || MergeResults(p, b, nil) != b {
		t.Error("nil merge identities")
	}
}

func TestCellPropertyMergeEquivalence(t *testing.T) {
	// Updating one cell with all values must equal merging two cells that
	// split the values — the leaf/stem/master decomposition invariant.
	vals := []types.Value{
		types.NewInt(3), types.NewInt(-1), types.NullValue(), types.NewFloat(2.5),
		types.NewInt(10), types.NewFloat(-0.5), types.NullValue(),
	}
	for split := 0; split <= len(vals); split++ {
		var whole, left, right Cell
		for i, v := range vals {
			whole.Update(v, false)
			if i < split {
				left.Update(v, false)
			} else {
				right.Update(v, false)
			}
		}
		left.Merge(right)
		for _, fn := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX"} {
			w, err1 := whole.Final(fn)
			m, err2 := left.Final(fn)
			if err1 != nil || err2 != nil {
				t.Fatalf("final: %v %v", err1, err2)
			}
			if !types.Equal(w, m) {
				t.Errorf("split %d %s: whole=%v merged=%v", split, fn, w, m)
			}
		}
	}
}

func TestStoreReaderMetaCaching(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	m1, err := h.reader.Meta(ctx, "/logs/p0")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := h.reader.Meta(ctx, "/logs/p0")
	if err != nil || m1 != m2 {
		t.Error("meta should be cached")
	}
	h.reader.InvalidateMeta("/logs/p0")
	// A retired partition is never read again: the footer must be released
	// by the invalidation itself, not by the re-read replacing it.
	if _, held := h.reader.metas["/logs/p0"]; held || len(h.reader.metas) != 0 {
		t.Errorf("invalidate left %d footers cached", len(h.reader.metas))
	}
	m3, err := h.reader.Meta(ctx, "/logs/p0")
	if err != nil || m3 == m1 {
		t.Error("invalidate should re-read")
	}
}

func TestStoreReaderErrors(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	if _, err := h.reader.Meta(ctx, "/missing"); err == nil {
		t.Error("missing file should fail")
	}
	_ = h.router.WriteFile(ctx, "/tiny", []byte("x"))
	if _, err := h.reader.Meta(ctx, "/tiny"); err == nil {
		t.Error("tiny file should fail")
	}
	meta, _ := h.reader.Meta(ctx, "/logs/p0")
	if _, err := h.reader.Column(ctx, "/logs/p0", meta, 99, 0); err == nil {
		t.Error("bad block should fail")
	}
	if _, err := h.reader.Column(ctx, "/logs/p0", meta, 0, 99); err == nil {
		t.Error("bad column should fail")
	}
}

func TestEvalThreeValuedLogic(t *testing.T) {
	env := litEnv{}
	null := &sqlparser.Literal{Value: types.NullValue()}
	tru := &sqlparser.Literal{Value: types.NewBool(true)}
	fls := &sqlparser.Literal{Value: types.NewBool(false)}

	cases := []struct {
		e    sqlparser.Expr
		want types.Value
	}{
		{&sqlparser.BinaryExpr{Op: sqlparser.OpAnd, L: null, R: fls}, types.NewBool(false)},
		{&sqlparser.BinaryExpr{Op: sqlparser.OpAnd, L: null, R: tru}, types.NullValue()},
		{&sqlparser.BinaryExpr{Op: sqlparser.OpOr, L: null, R: tru}, types.NewBool(true)},
		{&sqlparser.BinaryExpr{Op: sqlparser.OpOr, L: null, R: fls}, types.NullValue()},
		{&sqlparser.NotExpr{X: null}, types.NullValue()},
	}
	for i, c := range cases {
		got, err := Eval(c.e, env)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !types.Equal(got, c.want) && !(got.IsNull() && c.want.IsNull()) {
			t.Errorf("case %d = %v, want %v", i, got, c.want)
		}
	}
}

type litEnv struct{}

func (litEnv) Col(table, col string) (types.Value, error) {
	return types.Value{}, nil
}
func (litEnv) Repeated(table, col string) ([]types.Value, error) { return nil, nil }
func (litEnv) Sub(sqlparser.Expr) (types.Value, bool)            { return types.Value{}, false }

func TestEvalErrors(t *testing.T) {
	env := litEnv{}
	str := &sqlparser.Literal{Value: types.NewString("x")}
	one := &sqlparser.Literal{Value: types.NewInt(1)}
	if _, err := Eval(&sqlparser.NegExpr{X: str}, env); err == nil {
		t.Error("negate string should fail")
	}
	if _, err := Eval(&sqlparser.NotExpr{X: one}, env); err == nil {
		t.Error("NOT int should fail")
	}
	if _, err := Eval(&sqlparser.BinaryExpr{Op: sqlparser.OpAdd, L: str, R: one}, env); err == nil {
		t.Error("string + int should fail")
	}
	agg := &sqlparser.FuncCall{Name: "COUNT", Star: true}
	if _, err := Eval(agg, env); err == nil {
		t.Error("bare aggregate in row context should fail")
	}
}

func TestEvalModulo(t *testing.T) {
	env := litEnv{}
	mod := &sqlparser.BinaryExpr{
		Op: sqlparser.OpMod,
		L:  &sqlparser.Literal{Value: types.NewInt(7)},
		R:  &sqlparser.Literal{Value: types.NewInt(3)},
	}
	v, err := Eval(mod, env)
	if err != nil || v.I != 1 {
		t.Errorf("7%%3 = %v, %v", v, err)
	}
	modZero := &sqlparser.BinaryExpr{
		Op: sqlparser.OpMod,
		L:  &sqlparser.Literal{Value: types.NewInt(7)},
		R:  &sqlparser.Literal{Value: types.NewInt(0)},
	}
	v, err = Eval(modZero, env)
	if err != nil || !v.IsNull() {
		t.Errorf("7%%0 = %v, %v", v, err)
	}
}

func TestTaskResultEstimateBytes(t *testing.T) {
	r := &TaskResult{Rows: [][]types.Value{{types.NewString("abc"), types.NewInt(1)}}}
	if r.EstimateBytes() <= 0 {
		t.Error("estimate should be positive")
	}
	g := NewGroups(1)
	g.Get([]types.Value{types.NewString("k")})
	r2 := &TaskResult{Groups: g}
	if r2.EstimateBytes() <= 0 {
		t.Error("group estimate should be positive")
	}
}

func TestFinalizeNilMerged(t *testing.T) {
	// A table with zero partitions produces no task results; global
	// aggregation must still yield its empty-input row.
	h := newHarness(t)
	h.cat["empty"] = &plan.TableMeta{Name: "empty", Schema: h.cat["logs"].Schema}
	stmt, _ := sqlparser.Parse("SELECT COUNT(*), SUM(clicks) FROM empty")
	p, err := plan.Plan(stmt, h.cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Finalize(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("rows = %+v", res.Rows)
	}
	// Select mode over no tasks yields no rows.
	stmt2, _ := sqlparser.Parse("SELECT url FROM empty")
	p2, err := plan.Plan(stmt2, h.cat)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Finalize(p2, nil)
	if err != nil || len(res2.Rows) != 0 {
		t.Errorf("select rows = %+v, %v", res2.Rows, err)
	}
}

func TestOrClauseDoesNotCorruptIndexCache(t *testing.T) {
	// Regression: an OR clause whose first atom is an index hit must not
	// OR the second atom's bits into the cached bitmap.
	h := newHarness(t)
	h.idx = newMapIndex()
	// Warm both atoms individually.
	r1, _ := h.run("SELECT COUNT(*) FROM logs WHERE clicks > 6")
	r2, _ := h.run("SELECT COUNT(*) FROM logs WHERE score > 0.55")
	// OR query: first atom served from the cache.
	h.run("SELECT COUNT(*) FROM logs WHERE clicks > 6 OR score > 0.55")
	// The individual predicates must still answer exactly as before.
	r1b, s1 := h.run("SELECT COUNT(*) FROM logs WHERE clicks > 6")
	r2b, s2 := h.run("SELECT COUNT(*) FROM logs WHERE score > 0.55")
	if r1b.Rows[0][0].I != r1.Rows[0][0].I {
		t.Errorf("clicks>6 drifted: %v -> %v", r1.Rows[0][0], r1b.Rows[0][0])
	}
	if r2b.Rows[0][0].I != r2.Rows[0][0].I {
		t.Errorf("score>0.55 drifted: %v -> %v", r2.Rows[0][0], r2b.Rows[0][0])
	}
	if s1.Stats.IndexHits == 0 || s2.Stats.IndexHits == 0 {
		t.Error("re-runs should be index-served")
	}
}

func TestScanOpaqueLeafColumnComparison(t *testing.T) {
	// A column-vs-column comparison is not an indexable atom; it runs
	// through the opaque row-wise path.
	h := newHarness(t)
	res, merged := h.run("SELECT COUNT(*) FROM logs WHERE clicks > uid")
	// rows: (1,1)(5,2)(3,1)(0,3)(8,2)(2,9)(7,1)(4,3) -> clicks>uid: b,c,e,g,h = 5.
	if intAt(t, res, 0, 0) != 5 {
		t.Errorf("opaque filter = %+v", res.Rows)
	}
	if merged.Stats.IndexHits != 0 {
		t.Errorf("opaque clause must not hit the index: %+v", merged.Stats)
	}
	// Mixed clause: atom OR opaque.
	res, _ = h.run("SELECT COUNT(*) FROM logs WHERE clicks = 0 OR clicks > uid")
	if intAt(t, res, 0, 0) != 6 {
		t.Errorf("mixed clause = %+v", res.Rows)
	}
}

func TestUnorderedGroupByDeterministic(t *testing.T) {
	h := newHarness(t)
	r1, _ := h.run("SELECT query, COUNT(*) FROM logs GROUP BY query")
	r2, _ := h.run("SELECT query, COUNT(*) FROM logs GROUP BY query")
	if len(r1.Rows) != 5 {
		t.Fatalf("groups = %d", len(r1.Rows))
	}
	for i := range r1.Rows {
		if r1.Rows[i][0].S != r2.Rows[i][0].S {
			t.Fatalf("unordered group-by order not deterministic: %v vs %v", r1.Rows[i], r2.Rows[i])
		}
	}
}

func TestGroupsMergeDirect(t *testing.T) {
	// The stem-side merge: groups present on one side only, and on both.
	a, b := NewGroups(1), NewGroups(1)
	ga := a.Get([]types.Value{types.NewString("x")})
	ga.Cells[0].Update(types.NewInt(1), false)
	gb := b.Get([]types.Value{types.NewString("x")})
	gb.Cells[0].Update(types.NewInt(2), false)
	gOnly := b.Get([]types.Value{types.NewString("y")})
	gOnly.Cells[0].Update(types.NewInt(7), false)

	a.Merge(b)
	if len(a.M) != 2 {
		t.Fatalf("merged groups = %d", len(a.M))
	}
	x := a.M[GroupKey([]types.Value{types.NewString("x")})]
	if x.Cells[0].Count != 2 || x.Cells[0].SumI != 3 {
		t.Errorf("x cell = %+v", x.Cells[0])
	}
	y := a.M[GroupKey([]types.Value{types.NewString("y")})]
	if y.Cells[0].SumI != 7 {
		t.Errorf("y cell = %+v", y.Cells[0])
	}
}

func TestAggEnvErrorPaths(t *testing.T) {
	env := &aggEnv{}
	if _, err := env.Col("t", "c"); err == nil {
		t.Error("aggEnv.Col should fail")
	}
	if _, err := env.Repeated("t", "c"); err == nil {
		t.Error("aggEnv.Repeated should fail")
	}
}

func TestEvalContainsTypeError(t *testing.T) {
	env := litEnv{}
	bad := &sqlparser.BinaryExpr{
		Op: sqlparser.OpContains,
		L:  &sqlparser.Literal{Value: types.NewInt(1)},
		R:  &sqlparser.Literal{Value: types.NewString("x")},
	}
	if _, err := Eval(bad, env); err == nil {
		t.Error("CONTAINS over int should fail at eval")
	}
}

func TestBloomPruningEquality(t *testing.T) {
	// clicks per 4-row block: block0 {1,5,3,0}, block1 {8,2,7,4}. The value
	// 6 lies inside both min/max ranges but exists in neither block: only
	// the bloom can prune it (with high probability both blocks prune).
	h := newHarness(t)
	_, merged := h.run("SELECT COUNT(*) FROM logs WHERE clicks = 6")
	if merged.Stats.BlocksPruned == 0 {
		t.Errorf("bloom should prune range-covered but absent equality: %+v", merged.Stats)
	}
	// Present values are never pruned away.
	res, _ := h.run("SELECT COUNT(*) FROM logs WHERE clicks = 7")
	if intAt(t, res, 0, 0) != 1 {
		t.Errorf("clicks=7 count = %+v", res.Rows)
	}
}

// TestFilterMatchesBruteForceProperty cross-checks the whole filter stack
// (CNF pushdown, stats pruning, bloom pruning, SmartIndex bitmaps) against
// a row-by-row reference evaluation for randomized predicates.
func TestFilterMatchesBruteForceProperty(t *testing.T) {
	h := newHarness(t)
	h.idx = newMapIndex()
	// Reference data mirrors newHarness' rows.
	clicks := []int64{1, 5, 3, 0, 8, 2, 7, 4}
	scores := []float64{0.9, 0.5, 0.1, 0.0, 0.7, 0.3, 0.6, 0.2}
	queries := []string{"weather", "weather", "music", "spam offer", "news", "news", "maps", "maps"}

	rng := rand.New(rand.NewSource(99))
	ops := []string{">", ">=", "<", "<=", "=", "!="}
	evalInt := func(v int64, op string, x int64) bool {
		switch op {
		case ">":
			return v > x
		case ">=":
			return v >= x
		case "<":
			return v < x
		case "<=":
			return v <= x
		case "=":
			return v == x
		default:
			return v != x
		}
	}
	for trial := 0; trial < 120; trial++ {
		op1, op2 := ops[rng.Intn(len(ops))], ops[rng.Intn(len(ops))]
		x, y := int64(rng.Intn(10)), rng.Float64()
		conj := rng.Intn(2) == 0
		neg := rng.Intn(3) == 0
		term2 := fmt.Sprintf("score %s %.2f", op2, y)
		if neg {
			term2 = "NOT (" + term2 + ")"
		}
		connector := " OR "
		if conj {
			connector = " AND "
		}
		sql := fmt.Sprintf("SELECT COUNT(*) FROM logs WHERE clicks %s %d%s%s", op1, x, connector, term2)
		res, _ := h.run(sql)

		want := int64(0)
		for i := range clicks {
			a := evalInt(clicks[i], op1, x)
			// Reference float comparison against the rounded literal.
			yy := math.Round(y*100) / 100
			var b bool
			switch op2 {
			case ">":
				b = scores[i] > yy
			case ">=":
				b = scores[i] >= yy
			case "<":
				b = scores[i] < yy
			case "<=":
				b = scores[i] <= yy
			case "=":
				b = scores[i] == yy
			default:
				b = scores[i] != yy
			}
			if neg {
				b = !b
			}
			ok := a || b
			if conj {
				ok = a && b
			}
			if ok {
				want++
			}
		}
		if got := res.Rows[0][0].I; got != want {
			t.Fatalf("trial %d %q: engine %d, brute force %d (queries=%v)", trial, sql, got, want, queries[:0])
		}
	}
}

func TestRunTaskErrors(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()

	// Partition lacking a planned column.
	stmt, _ := sqlparser.Parse("SELECT clicks FROM logs")
	p, err := plan.Plan(stmt, h.cat)
	if err != nil {
		t.Fatal(err)
	}
	task := p.Tasks()[0]
	task.Partition.Path = "/missing"
	if _, err := RunTask(ctx, task, h.reader, nil); err == nil {
		t.Error("missing partition should fail")
	}

	// Schema mismatch: table whose catalog claims a column the file lacks.
	badSchema := types.MustSchema(
		types.Field{Name: "query", Type: types.String},
		types.Field{Name: "ghost", Type: types.Int64},
	)
	h.cat["ghostly"] = &plan.TableMeta{Name: "ghostly", Schema: badSchema, Partitions: []plan.PartitionMeta{
		{Path: "/logs/p0", Rows: 8},
	}}
	stmt2, _ := sqlparser.Parse("SELECT ghost FROM ghostly")
	p2, err := plan.Plan(stmt2, h.cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunTask(ctx, p2.Tasks()[0], h.reader, nil); err == nil {
		t.Error("column missing from file should fail")
	}
}

func TestJoinEnvUnknownTable(t *testing.T) {
	h := newHarness(t)
	// Dimension column referenced but not shipped: exercised via a plan
	// mutated to drop the needed column.
	stmt, _ := sqlparser.Parse("SELECT COUNT(*) FROM logs JOIN users ON logs.uid = users.uid WHERE users.city = 'bj'")
	p, err := plan.Plan(stmt, h.cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range p.Dims {
		d.Data = h.userData(d.Needed)
		d.Needed = d.Needed[:1] // drop a shipped column after materialization
	}
	_, err = RunTask(context.Background(), p.Tasks()[0], h.reader, nil)
	if err == nil {
		t.Error("unshipped dim column should fail at eval")
	}
}
