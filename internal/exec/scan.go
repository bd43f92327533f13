package exec

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/types"
)

// PartitionReader supplies partition metadata and individual column chunks.
// The production implementation reads byte ranges through the common
// storage layer (StoreReader); the SSD cache wraps it. Meta returns the
// footer of the partition's file at the partition's generation (its Gen).
type PartitionReader interface {
	Meta(ctx context.Context, part plan.PartitionMeta) (*colstore.FileMeta, error)
	Column(ctx context.Context, path string, meta *colstore.FileMeta, block, col int) (*colstore.Column, error)
}

// IndexSource is the SmartIndex seen from the executor: bitmaps of predicate
// evaluation results per (block, atom). A nil IndexSource disables indexing.
// Lookup may satisfy an atom from a complementary cached entry via bit-NOT
// (paper Fig. 7); Store always receives the atom's positive form result. The
// scanner asks it only about atoms over flat columns that the block's footer
// did not decide: what min/max and the bloom prove is the scanner's to read.
type IndexSource interface {
	// Lookup returns the evaluation bitmap for the atom over the block of n
	// records, when the index can answer it (directly, or via bit-NOT of a
	// complementary or positive-form entry). Implementations charge their
	// simulated lookup cost to the context's bill.
	Lookup(ctx context.Context, blockID string, atom plan.Atom, n int) (*bitmap.Bitmap, bool)
	// Store offers the atom's freshly evaluated positive-form bitmap with the
	// column chunk's footer stats. The executor keeps using (and may mutate)
	// bm after the call, so an index that retains it must copy it.
	Store(blockID string, atom plan.Atom, bm *bitmap.Bitmap, stats colstore.Stats)
}

// ColumnObserver is implemented by index sources that index raw columns as
// the executor reads them (the B-tree baseline of paper Fig. 9b).
type ColumnObserver interface {
	ObserveColumn(blockID, colName string, c *colstore.Column, numRows int)
}

// ScanStats counts what the scan did; the evaluation harness reports these.
type ScanStats struct {
	BlocksTotal   int64
	BlocksPruned  int64 // skipped via footer min/max/bloom stats
	BlocksEmpty   int64 // selection became empty before any output work
	IndexHits     int64
	IndexMisses   int64
	ColumnReads   int64 // column chunks fetched from storage
	RowsScanned   int64 // records whose selection was decided
	RowsSelected  int64
	RowsEmitted   int64
	ShortCircuits int64 // blocks answered purely from bitmaps (no data read)
}

// Add folds other into s.
func (s *ScanStats) Add(o ScanStats) {
	s.BlocksTotal += o.BlocksTotal
	s.BlocksPruned += o.BlocksPruned
	s.BlocksEmpty += o.BlocksEmpty
	s.IndexHits += o.IndexHits
	s.IndexMisses += o.IndexMisses
	s.ColumnReads += o.ColumnReads
	s.RowsScanned += o.RowsScanned
	s.RowsSelected += o.RowsSelected
	s.RowsEmitted += o.RowsEmitted
	s.ShortCircuits += o.ShortCircuits
}

// TaskResult is one leaf sub-plan's output: projected rows (select mode) or
// partial aggregates (agg mode).
type TaskResult struct {
	Rows   [][]types.Value
	Groups *Groups
	Stats  ScanStats
}

// EstimateBytes approximates the result's wire size: the size a leaf's
// reply reports, which the stem bills as the reply's transfer.
func (r *TaskResult) EstimateBytes() int64 {
	n := EstimateRows(r.Rows)
	if r.Groups != nil {
		for _, g := range r.Groups.M {
			n += g.estimate()
		}
	}
	return n
}

// EstimateRows is EstimateBytes for a result holding just these rows.
func EstimateRows(rows [][]types.Value) int64 {
	n := int64(64)
	for _, row := range rows {
		n += estimateRow(row)
	}
	return n
}

// EstimateGroups is EstimateBytes for a result holding just these groups
// (one run of a shuffle message part).
func EstimateGroups(groups []Group) int64 {
	n := int64(64)
	for i := range groups {
		n += groups[i].estimate()
	}
	return n
}

// estimate is one group's share of a result's estimated wire size.
func (g *Group) estimate() int64 {
	return estimateRow(g.Keys) + int64(len(g.Cells))*48
}

func estimateRow(vals []types.Value) int64 {
	n := int64(0)
	for _, v := range vals {
		n += 9 + int64(len(v.S))
	}
	return n
}

// RunTaskModel executes one sub-plan: scan the fact partition, filter with
// SmartIndex assistance, join broadcast dimensions, and emit projected rows
// or partial aggregates. With a cost model, predicate evaluation over fetched
// column bytes is charged as CPU scan time; leaves pass their model, local
// and test paths nil. It binds for just this task.
func RunTaskModel(ctx context.Context, task plan.TaskSpec, reader PartitionReader, idx IndexSource, model *sim.CostModel) (*TaskResult, error) {
	s, err := Bind(task.Plan, reader, idx, model)
	if err != nil {
		return nil, err
	}
	return s.Run(ctx, task)
}

// Run executes one task of the bound plan. The task's plan is the bound one
// or a shallow copy of it: Run reads only its ScanLimit. The task's blocks
// are scanned in order on the caller's goroutine: a leaf's parallelism is its
// many tasks, not stripes of one.
func (s *Scanner) Run(ctx context.Context, task plan.TaskSpec) (*TaskResult, error) {
	limit := task.Plan.ScanLimit
	if limit == 0 { // LIMIT 0 wants no row: read nothing
		return &TaskResult{}, nil
	}
	// The scan span collects the per-task breakdown behind EXPLAIN
	// ANALYZE: index and cache instrumentation downstream counts into it
	// via the context.
	ctx, span := trace.StartSpan(ctx, "scan")
	span.SetAttr("partition", task.Partition.Path)
	defer span.Finish()
	if err := s.begin(ctx, task.Partition, limit); err != nil {
		return nil, err
	}
	res := &TaskResult{}
	if s.plan.Mode == plan.ModeAgg {
		res.Groups = NewGroups(len(s.plan.Aggs))
	}
	// Per-block partials merged in block order, so float aggregation order
	// is fixed by the file. A pushed-down LIMIT stops mid-stream and gathers
	// every block into one partial, the scanner's own.
	part := &s.part
	for bi, done := 0, false; bi < len(s.meta.Blocks) && !done; bi++ {
		var err error
		if done, err = s.scanBlock(bi); err != nil {
			return nil, err
		}
		if limit < 0 {
			res.fold(part)
			*part = blockPartial{}
		}
	}
	res.fold(part)
	span.Count("blocks.total", res.Stats.BlocksTotal)
	span.Count("blocks.pruned", res.Stats.BlocksPruned)
	span.Count("blocks.shortcircuit", res.Stats.ShortCircuits)
	span.Count("index.hit", res.Stats.IndexHits)
	span.Count("index.miss", res.Stats.IndexMisses)
	span.Count("columns.read", res.Stats.ColumnReads)
	span.Count("rows.scanned", res.Stats.RowsScanned)
	span.Count("rows.selected", res.Stats.RowsSelected)
	span.Count("rows.emitted", res.Stats.RowsEmitted)
	return res, nil
}

// blockPartial is what scanning one block yields. Partials fold into the
// task result in ascending block order.
type blockPartial struct {
	stats  ScanStats
	rows   [][]types.Value
	slab   []types.Value // where the next output rows are cut from
	groups *Groups       // nil until a row is aggregated
	count  int64         // rows of a block answered as a pure COUNT(*)
}

// fold merges one block's partial into the task result.
func (r *TaskResult) fold(part *blockPartial) {
	r.Stats.Add(part.stats)
	r.Rows = append(r.Rows, part.rows...)
	if part.count > 0 {
		cells := r.Groups.Get(nil).Cells
		for i := range cells {
			cells[i].Count += part.count
		}
	}
	if part.groups != nil {
		r.Groups.Merge(part.groups)
	}
}

// Scanner is a plan bound for a leaf batch's tasks, which it runs one at a
// time: Bind resolves once what the plan alone decides (filter atoms and
// bloom keys, bindings, dimension hash tables), and Run adds a task's
// partition, footer and LIMIT. Its scratch is reused from task to task;
// nothing that reaches a TaskResult is. It is the Env of every expression a
// task evaluates: the current fact row plus the dimension rows matched to it.
type Scanner struct {
	plan   *plan.PhysicalPlan
	reader PartitionReader
	idx    IndexSource
	obs    ColumnObserver // idx, when it also indexes raw columns
	model  *sim.CostModel // nil: predicate CPU time is not billed
	fact   string

	// bound once per plan
	filter    []scanClause
	ungrouped bool // agg mode with no GROUP BY, dims or post filter
	countStar bool // ungrouped, and every aggregate is COUNT(*)
	dims      []*dimTable
	outs      []boundExpr // select mode: output expressions
	keys      []boundExpr // agg mode: group-by keys
	args      []boundExpr // agg mode: aggregate arguments, aligned with plan.Aggs

	// per task
	ctx      context.Context
	path     string
	meta     *colstore.FileMeta
	blockIDs []string // SmartIndex block ids, by block ordinal
	ords     []int    // position in plan.FactCols -> file ordinal
	limit    int64    // the task's pushed-down LIMIT, -1 for none
	slabs    groupSlabs
	part     blockPartial // what the block being scanned yields

	// per block
	block   int
	cols    []*colstore.Column // by FactCols position; nil until fetched
	sel     bitmap.Bitmap      // the block's selection vector
	keyVals []types.Value      // group-by or join key of the current row
	keyBuf  []byte             // its encoding

	// per row
	row     int
	dimRows []int // per dimension: the matched row, -1 while none is bound
}

// colPos returns the fact column's position in plan.FactCols, or -1: the
// ordinal table is the (short) column list itself.
func (s *Scanner) colPos(name string) int { return slices.Index(s.plan.FactCols, name) }

// scanAtom is a filter atom resolved for the plan, with its footer verdict
// for the block being scanned. col is an int32 so that the atom, verdict
// included, fits a 128-byte size class: every task allocates its clauses.
type scanAtom struct {
	plan.Atom        // as planned, negation intact
	col       int32  // position in plan.FactCols, -1 for an unknown column
	never     bool   // the footer proves no record of the block matches
	always    bool   // the footer proves every record does
	bloom     []byte // = and <> atoms: the literal's bloom key
}

type scanClause struct {
	atoms  []scanAtom
	opaque []sqlparser.Expr
}

// boundExpr is an output expression, aggregate argument, group-by or join
// key bound once per plan: a plain fact column to its FactCols position, read
// from the block's typed slices; anything else to Eval over the scanner.
type boundExpr struct {
	col  int // -1: evaluate expr
	expr sqlparser.Expr
}

// dimTable is a broadcast dimension bound for the plan: its rows indexed by
// their join key (a cross join's by the empty key), and the fact-side key
// expressions that probe them.
type dimTable struct {
	joinTable
	plan     *plan.DimPlan
	colIdx   map[string]int // dim column -> index in Data rows
	factKeys []boundExpr
	binding  string
}

// Bind resolves the plan for the tasks that will Run on the scanner.
func Bind(p *plan.PhysicalPlan, reader PartitionReader, idx IndexSource, model *sim.CostModel) (*Scanner, error) {
	s := &Scanner{plan: p, reader: reader, idx: idx, model: model, fact: p.Fact().Ref.Binding()}
	s.obs, _ = idx.(ColumnObserver)
	s.cols, s.ords = make([]*colstore.Column, len(p.FactCols)), make([]int, len(p.FactCols))
	s.filter = make([]scanClause, len(p.Filter.Clauses))
	for i, cl := range p.Filter.Clauses {
		s.filter[i] = s.bindClause(cl)
	}
	// With no grouping, dims or post filter a block is aggregated column by
	// column; with only COUNT(*) aggregates on top, it is just counted.
	s.ungrouped = p.Mode == plan.ModeAgg && len(p.GroupBy) == 0 && len(p.Dims) == 0 && len(p.Post) == 0
	s.countStar = s.ungrouped && len(p.Aggs) > 0 && !slices.ContainsFunc(p.Aggs, func(a plan.AggSpec) bool { return !a.Star })
	if err := s.buildDimTables(); err != nil {
		return nil, err
	}
	s.keys = s.bindAll(p.GroupBy)
	if p.Mode != plan.ModeAgg {
		s.outs = make([]boundExpr, len(p.A.Outputs))
		for i, oi := range p.A.Outputs {
			s.outs[i] = s.bind(oi.Expr)
		}
	}
	s.args = make([]boundExpr, len(p.Aggs))
	for i, a := range p.Aggs {
		s.args[i] = s.bind(a.Arg) // unread for COUNT(*)
	}
	s.dimRows = make([]int, len(s.dims))
	for i := range s.dimRows {
		s.dimRows[i] = -1 // joinFrom leaves it so after every row
	}
	return s, nil
}

// begin points the scanner at a task: its footer, the footer's column
// ordinals and block ids, its LIMIT, fresh group slabs and partial.
func (s *Scanner) begin(ctx context.Context, part plan.PartitionMeta, limit int64) error {
	meta, err := s.reader.Meta(ctx, part)
	if err != nil {
		return fmt.Errorf("exec: meta %s: %w", part.Path, err)
	}
	s.ctx, s.path, s.meta, s.limit, s.slabs, s.part = ctx, part.Path, meta, limit, groupSlabs{}, blockPartial{}
	for i, name := range s.plan.FactCols {
		if s.ords[i] = meta.Schema.Index(name); s.ords[i] < 0 {
			return fmt.Errorf("exec: partition %s lacks column %q", part.Path, name)
		}
	}
	if s.blockIDs = meta.BlockIDs; s.blockIDs == nil && s.idx != nil {
		s.blockIDs = BlockIDs(part, len(meta.Blocks))
	}
	return nil
}

// BlockIDs names a partition's blocks for SmartIndex, "<path>#<gen>#<block>"
// (a rewritten file's blocks never meet its predecessor's entries, and
// Invalidate(path+"#") releases every generation), cut from one string.
func BlockIDs(part plan.PartitionMeta, blocks int) []string {
	var genBuf [20]byte
	gen := strconv.AppendUint(genBuf[:0], part.Gen, 10)
	all, ends := make([]byte, 0, blocks*(len(part.Path)+len(gen)+5)), make([]int, blocks+1)
	for bi := 0; bi < blocks; bi++ {
		all = append(append(append(append(all, part.Path...), '#'), gen...), '#')
		all = strconv.AppendInt(all, int64(bi), 10)
		ends[bi+1] = len(all)
	}
	ids, str := make([]string, blocks), string(all)
	for bi := range ids {
		ids[bi] = str[ends[bi]:ends[bi+1]]
	}
	return ids
}

func (s *Scanner) bindClause(cl plan.Clause) scanClause {
	out := scanClause{atoms: make([]scanAtom, len(cl.Atoms)), opaque: cl.Opaque}
	for i, a := range cl.Atoms {
		out.atoms[i] = scanAtom{Atom: a, col: int32(s.colPos(a.Col))}
		if a.Op == sqlparser.OpEq || a.Op == sqlparser.OpNe {
			out.atoms[i].bloom = colstore.BloomKey(a.Val)
		}
	}
	return out
}

func (s *Scanner) bind(e sqlparser.Expr) boundExpr {
	if c, ok := e.(*sqlparser.ColumnRef); ok && c.Table == s.fact {
		if pos := s.colPos(c.Column); pos >= 0 {
			return boundExpr{col: pos}
		}
	}
	return boundExpr{col: -1, expr: e}
}

func (s *Scanner) bindAll(exprs []sqlparser.Expr) []boundExpr {
	out := make([]boundExpr, len(exprs))
	for i, e := range exprs {
		out[i] = s.bind(e)
	}
	return out
}

func (s *Scanner) buildDimTables() error {
	for _, d := range s.plan.Dims {
		dt := &dimTable{plan: d, binding: d.Table.Ref.Binding(), colIdx: make(map[string]int), factKeys: s.bindAll(d.FactKeys)}
		for i, c := range d.Needed {
			dt.colIdx[c] = i
		}
		keyIdx := make([]int, len(d.DimKeys))
		for i, k := range d.DimKeys {
			ord, ok := dt.colIdx[k]
			if !ok {
				return fmt.Errorf("exec: join key %q of dimension %s not among shipped columns %v", k, dt.binding, d.Needed)
			}
			keyIdx[i] = ord
		}
		keyVals := make([]types.Value, len(keyIdx))
		dt.joinTable = newJoinTable(d.Data, func(ri int) []types.Value {
			for i, ki := range keyIdx {
				keyVals[i] = d.Data[ri][ki]
			}
			return keyVals
		})
		s.dims = append(s.dims, dt)
	}
	return nil
}

// column fetches (and keeps for the current block) the fact column chunk at
// a FactCols position.
func (s *Scanner) column(pos int) (*colstore.Column, error) {
	if c := s.cols[pos]; c != nil {
		return c, nil
	}
	ord := s.ords[pos]
	c, err := s.reader.Column(s.ctx, s.path, s.meta, s.block, ord)
	if err != nil {
		return nil, err
	}
	s.cols[pos] = c
	s.part.stats.ColumnReads++
	if s.model != nil {
		// Predicate evaluation over the chunk is CPU work, priced per byte
		// fetched, on the task's bill.
		if b := storage.BillFrom(s.ctx); b != nil {
			b.ChargeScan(s.model, s.meta.Blocks[s.block].ColExtents[ord].Len)
		}
	}
	return c, nil
}

// scanBlock scans one block into s.part; it returns done=true when a
// pushed-down LIMIT is satisfied.
func (s *Scanner) scanBlock(bi int) (bool, error) {
	bm, part := &s.meta.Blocks[bi], &s.part
	s.block = bi
	clear(s.cols)
	part.stats.BlocksTotal++
	// The footer decides what it can before any index or data is touched: a
	// block where some clause no record can satisfy is skipped.
	for i := range s.filter {
		if s.footerNever(&s.filter[i], bm) {
			part.stats.BlocksPruned++
			return false, nil
		}
	}

	sel, decided, err := s.selection(bm.Stats.NumRows)
	if err != nil {
		return false, err
	}
	part.stats.RowsScanned += int64(bm.Stats.NumRows)
	selected := sel.Count()
	part.stats.RowsSelected += int64(selected)
	if selected == 0 {
		part.stats.BlocksEmpty++
		return false, nil
	}

	// The paper's headline shortcut (Fig. 7): a fully indexed COUNT(*)
	// needs no data access at all.
	if s.countStar {
		if decided {
			part.stats.ShortCircuits++
		}
		part.count += int64(selected)
		return false, nil
	}

	if s.plan.Mode == plan.ModeAgg && part.groups == nil {
		part.groups = NewGroups(len(s.plan.Aggs))
	}
	if s.ungrouped {
		return false, s.foldSelection(sel, int64(selected))
	}
	// Row-wise output over selected records, in ascending row order. With no
	// join or post filter to change their count, one slab holds them all.
	if s.plan.Mode != plan.ModeAgg && len(s.dims) == 0 && len(s.plan.Post) == 0 {
		n := selected
		if s.limit >= 0 {
			n = int(min(int64(n), max(s.limit-int64(len(part.rows)), 1)))
		}
		part.slab = make([]types.Value, n*len(s.outs))
		part.rows = slices.Grow(part.rows, n)
	}
	done := false
	sel.ForEachSet(func(r int) {
		if !done && err == nil {
			s.row = r
			done, err = s.joinFrom(0)
		}
	})
	return done, err
}

// foldSelection aggregates the selected rows of a statement with no GROUP
// BY, join or post-join clause one aggregate at a time. Each cell still sees
// its rows in ascending order, so its float sum is bit-identical to the
// row-by-row one.
func (s *Scanner) foldSelection(sel *bitmap.Bitmap, selected int64) (err error) {
	s.part.stats.RowsEmitted += selected
	cells := s.part.groups.get(nil, &s.slabs).Cells
	for i, spec := range s.plan.Aggs {
		cell, arg := &cells[i], s.args[i]
		if spec.Star {
			cell.Count += selected
			continue
		}
		if arg.col >= 0 {
			c, err := s.column(arg.col)
			if err != nil {
				return err
			}
			if foldFlat(cell, c, sel) {
				continue
			}
		}
		sel.ForEachSet(func(r int) {
			if s.row = r; err == nil {
				var v types.Value
				if v, err = s.value(arg); err == nil {
					cell.Update(v, false)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// foldFlat folds the selected values of a flat, NULL-free numeric column
// into an empty cell straight from the typed slice, and reports whether it
// could.
func foldFlat(cell *Cell, c *colstore.Column, sel *bitmap.Bitmap) bool {
	if c.Offsets != nil || c.Nulls != nil || *cell != (Cell{}) {
		return false
	}
	switch c.Type {
	case types.Int64:
		n, sum, lo, hi := foldValues(c.Ints, sel)
		*cell = Cell{Count: n, SumI: sum, Min: types.NewInt(lo), Max: types.NewInt(hi)}
	case types.Float64:
		n, sum, lo, hi := foldValues(c.Floats, sel)
		*cell = Cell{Count: n, SumF: sum, Float: true, Min: types.NewFloat(lo), Max: types.NewFloat(hi)}
	default:
		return false
	}
	return true
}

// foldValues does what Cell.Update does value by value: the sum grows from
// zero in row order, and min and max move in types.Compare's order, which is
// cmp.Less's (a NaN is below every number).
func foldValues[T int64 | float64](vals []T, sel *bitmap.Bitmap) (n int64, sum, lo, hi T) {
	sel.ForEachSet(func(r int) {
		v := vals[r]
		if n == 0 {
			lo, hi = v, v
		}
		n++
		sum += v
		if cmp.Less(v, lo) {
			lo = v
		}
		if cmp.Less(hi, v) {
			hi = v
		}
	})
	return n, sum, lo, hi
}

// footerNever sets the clause's atom verdicts for the block from its footer
// and reports whether the clause is never true: every leaf is an atom no
// record satisfies.
func (s *Scanner) footerNever(cl *scanClause, bm *colstore.BlockMeta) bool {
	never := len(cl.opaque) == 0 && len(cl.atoms) > 0
	for i := range cl.atoms {
		a := &cl.atoms[i]
		a.never, a.always = false, false
		if a.col >= 0 {
			ord := s.ords[a.col]
			a.verdict(&bm.Stats.Columns[ord], !s.meta.Schema.Fields[ord].Repeated)
		}
		never = never && a.never
	}
	return never
}

// verdict decides the atom over one column chunk from its footer stats. A
// positive atom is never true when atomNever says so, and always true when
// its complement is never true on a flat chunk with no NULL: every record
// then holds one value, which satisfies the atom or its complement (it is
// comparable with the literal: atomNever proves nothing otherwise). A
// negated atom NOT p matches what p's complement does (EvalAtom rejects NULL
// and incomparable values before negating), so it is decided as that; NOT
// CONTAINS, with no complement, only by what no atom matches.
func (a *scanAtom) verdict(st *colstore.Stats, flat bool) {
	op := a.Op
	comp, invertible := op.Negate()
	if a.Negated && invertible {
		op, comp = comp, op
	}
	a.never = atomNever(op, a.Val, a.bloom, st)
	a.always = invertible && !a.never && flat && st.NullCount == 0 && atomNever(comp, a.Val, a.bloom, st)
}

// atomNever reports whether stats prove no value of the chunk satisfies
// `op val`: the min/max range for ordered comparisons, plus the chunk's bloom
// filter for equality (the "range bloom" of paper Fig. 6). NULL values
// satisfy no comparison, so they never keep a chunk alive.
func atomNever(op sqlparser.BinaryOp, val types.Value, bloomKey []byte, st *colstore.Stats) bool {
	if st.Min.IsNull() || val.IsNull() {
		// Min is NULL exactly when the chunk has no non-NULL value; a NULL
		// literal matches nothing.
		return true
	}
	cmpMin, errMin := types.Compare(val, st.Min)
	cmpMax, errMax := types.Compare(val, st.Max)
	if errMin != nil || errMax != nil {
		return false // stats prove nothing about an incomparable literal
	}
	switch op {
	case sqlparser.OpEq:
		return cmpMin < 0 || cmpMax > 0 || st.Bloom != nil && !st.Bloom.MayContain(bloomKey)
	case sqlparser.OpNe:
		return cmpMin == 0 && cmpMax == 0 // every value equals val
	case sqlparser.OpLt:
		return cmpMin <= 0 // val <= min: nothing below val
	case sqlparser.OpLe:
		return cmpMin < 0
	case sqlparser.OpGt:
		return cmpMax >= 0
	case sqlparser.OpGe:
		return cmpMax > 0
	default:
		return false // min/max say nothing about substring membership
	}
}

// selection computes the block's selection bitmap from the pushed-down CNF:
// a clause with an atom the footer proves always true selects every record,
// and an atom it proves never true adds none. decided reports whether every
// clause was answered from the footer or from bitmaps.
func (s *Scanner) selection(n int) (*bitmap.Bitmap, bool, error) {
	sel := &s.sel
	sel.Fill(n)
	allIndexed := true
	for ci := range s.filter {
		cl := &s.filter[ci]
		if slices.ContainsFunc(cl.atoms, func(a scanAtom) bool { return a.always }) {
			continue
		}
		// clauseBm accumulates the OR of the clause's leaves. Bitmaps
		// fetched from the index are owned by the cache and must never be
		// mutated; owned tracks whether clauseBm is safe to OR into, and a
		// lazy clone happens on the first mutation of a borrowed bitmap.
		var clauseBm *bitmap.Bitmap
		owned := false
		or := func(bm *bitmap.Bitmap, own bool) {
			if clauseBm == nil {
				clauseBm, owned = bm, own
				return
			}
			if !owned {
				clauseBm = clauseBm.Clone()
				owned = true
			}
			clauseBm.Or(bm)
		}
		for ai := range cl.atoms {
			if cl.atoms[ai].never {
				continue
			}
			abm, fromIndex, err := s.atomBitmap(&cl.atoms[ai], n)
			if err != nil {
				return nil, false, err
			}
			if !fromIndex {
				allIndexed = false
			}
			// Freshly evaluated bitmaps are ours; index answers are
			// borrowed from the cache.
			or(abm, !fromIndex)
		}
		for _, op := range cl.opaque {
			allIndexed = false
			obm, err := s.opaqueBitmap(op, n)
			if err != nil {
				return nil, false, err
			}
			or(obm, true)
		}
		if clauseBm != nil {
			sel.And(clauseBm)
			if !sel.Any() {
				return sel, allIndexed, nil
			}
		}
	}
	return sel, allIndexed, nil
}

// atomBitmap resolves one atom: SmartIndex hit, or evaluate + store.
// fromIndex reports a cache hit. The atom is passed to the index with its
// negation intact: only the index knows whether bit-NOT is sound for the
// block (it is not when the column has NULLs, which satisfy neither the
// predicate nor its negation). An atom over a repeated column never meets
// the index: bit-NOT of ANY(p) is not ANY(NOT p), and a record with no
// element satisfies neither.
func (s *Scanner) atomBitmap(a *scanAtom, n int) (*bitmap.Bitmap, bool, error) {
	if a.col < 0 {
		return nil, false, fmt.Errorf("exec: filter column %q is not among the plan's fact columns", a.Col)
	}
	idx, obs := s.idx, s.obs
	if s.meta.Schema.Fields[s.ords[a.col]].Repeated {
		idx, obs = nil, nil
	}
	if idx != nil {
		if cached, ok := idx.Lookup(s.ctx, s.blockIDs[s.block], a.Atom, n); ok {
			s.part.stats.IndexHits++
			if cached.Len() != n {
				return nil, false, fmt.Errorf("exec: index bitmap length %d != block rows %d", cached.Len(), n)
			}
			return cached, true, nil
		}
		s.part.stats.IndexMisses++
	}
	col, err := s.column(int(a.col))
	if err != nil {
		return nil, false, err
	}
	if obs != nil {
		obs.ObserveColumn(s.blockIDs[s.block], a.Col, col, n)
	}
	// The index stores the canonical, positive form.
	positive := a.Atom
	positive.Negated = false
	pos := evalAtomOverColumn(positive, col, n)
	if idx != nil {
		idx.Store(s.blockIDs[s.block], positive, pos, s.meta.Blocks[s.block].Stats.Columns[s.ords[a.col]])
	}
	if a.Negated {
		// Evaluate the negated form directly over the column: NULLs (and
		// for repeated columns, records with no matching element) follow
		// EvalAtom's semantics rather than a blind bit-NOT.
		return evalAtomOverColumn(a.Atom, col, n), false, nil
	}
	return pos, false, nil
}

// evalAtomOverColumn evaluates the atom for every record. Simple
// comparisons over flat columns take the vectorized kernel; repeated
// columns (ANY-element semantics), CONTAINS, negation and booleans fall
// back to the row-wise tree walk.
func evalAtomOverColumn(a plan.Atom, col *colstore.Column, n int) *bitmap.Bitmap {
	if out, ok := evalAtomKernel(a, col, n); ok {
		return out
	}
	return evalAtomRows(a, col, n)
}

// evalAtomRows evaluates the atom record by record with EvalAtom; a repeated
// column's record matches when any of its elements does.
func evalAtomRows(a plan.Atom, col *colstore.Column, n int) *bitmap.Bitmap {
	out := bitmap.New(n)
	if col.Offsets != nil {
		for r := 0; r < n; r++ {
			start, end := col.Offsets[r], col.Offsets[r+1]
			for i := start; i < end; i++ {
				if plan.EvalAtom(a, col.Value(int(i))) {
					out.Set(r)
					break
				}
			}
		}
		return out
	}
	for r := 0; r < n; r++ {
		if plan.EvalAtom(a, col.Value(r)) {
			out.Set(r)
		}
	}
	return out
}

// opaqueBitmap evaluates a non-atom leaf row-wise over fact columns.
func (s *Scanner) opaqueBitmap(e sqlparser.Expr, n int) (*bitmap.Bitmap, error) {
	out := bitmap.New(n)
	for r := 0; r < n; r++ {
		s.row = r
		ok, err := EvalBool(e, s)
		if err != nil {
			return nil, err
		}
		if ok {
			out.Set(r)
		}
	}
	return out, nil
}

// value reads a bound expression for the current row.
func (s *Scanner) value(b boundExpr) (types.Value, error) {
	if b.col < 0 {
		return Eval(b.expr, s)
	}
	c, err := s.column(b.col)
	if err != nil {
		return types.Value{}, err
	}
	return scalarAt(c, s.row), nil
}

// scalarAt is record r's value in scalar position: a repeated column yields
// its first element, or NULL for an empty record.
func scalarAt(c *colstore.Column, r int) types.Value {
	if c.Offsets != nil {
		start, end := c.Offsets[r], c.Offsets[r+1]
		if start == end {
			return types.NullValue()
		}
		r = int(start)
	}
	return c.Value(r)
}

// joinFrom expands the current fact row's dimension matches from dimension
// di on (star join fan-out) and emits what survives. done=true when the
// pushed-down limit is hit.
func (s *Scanner) joinFrom(di int) (bool, error) {
	if di == len(s.dims) {
		return s.emitJoined()
	}
	dt := s.dims[di]
	s.keyVals = s.keyVals[:0]
	for _, fk := range dt.factKeys {
		v, err := s.value(fk)
		if err != nil {
			return false, err
		}
		s.keyVals = append(s.keyVals, v)
	}

	// The dimension is bound only while one of its candidates is expanded:
	// a LEFT OUTER non-match, and the next fact row, must read it NULL.
	matched := false
	for r := dt.lookup(s.keyVals, &s.keyBuf); r >= 0; r = dt.next[r] {
		s.dimRows[di] = r
		done := false
		ok, err := clausesTrue(dt.plan.Residual, s)
		if ok {
			matched = true
			done, err = s.joinFrom(di + 1)
		}
		if done || err != nil {
			s.dimRows[di] = -1
			return done, err
		}
	}
	s.dimRows[di] = -1
	if !matched && dt.plan.Type == sqlparser.JoinLeftOuter {
		// Preserve the fact row with NULL dimension columns.
		return s.joinFrom(di + 1)
	}
	return false, nil
}

// emitJoined applies post-join clauses then emits the joined row: into the
// block's groups, or as a projected row.
func (s *Scanner) emitJoined() (bool, error) {
	if ok, err := clausesTrue(s.plan.Post, s); err != nil || !ok {
		return false, err
	}
	part := &s.part
	part.stats.RowsEmitted++
	if s.plan.Mode == plan.ModeAgg {
		s.keyVals = s.keyVals[:0]
		for _, k := range s.keys {
			v, err := s.value(k)
			if err != nil {
				return false, err
			}
			s.keyVals = append(s.keyVals, v)
		}
		cells := part.groups.get(s.keyVals, &s.slabs).Cells
		for i, spec := range s.plan.Aggs {
			if spec.Star {
				cells[i].Count++
				continue
			}
			v, err := s.value(s.args[i])
			if err != nil {
				return false, err
			}
			cells[i].Update(v, false)
		}
		return false, nil
	}
	row := cut(&part.slab, len(s.outs), len(part.rows))
	for i, o := range s.outs {
		v, err := s.value(o)
		if err != nil {
			return false, err
		}
		row[i] = v
	}
	part.rows = append(part.rows, row)
	return s.limit >= 0 && int64(len(part.rows)) >= s.limit, nil
}

// Col implements Env for the expressions bind leaves to Eval: the current
// fact row's columns, resolved through the task's ordinal table, and the
// dimension rows bound to it.
func (s *Scanner) Col(table, col string) (types.Value, error) {
	if table == s.fact {
		if pos := s.colPos(col); pos >= 0 {
			return s.value(boundExpr{col: pos})
		}
		return types.Value{}, fmt.Errorf("exec: column %s.%s is not among the plan's fact columns", table, col)
	}
	for di, dt := range s.dims {
		if dt.binding != table {
			continue
		}
		if s.dimRows[di] < 0 {
			return types.NullValue(), nil // left-outer non-match
		}
		ci, ok := dt.colIdx[col]
		if !ok {
			return types.Value{}, fmt.Errorf("exec: dimension %s has no shipped column %q", table, col)
		}
		return dt.rows[s.dimRows[di]][ci], nil
	}
	return types.Value{}, fmt.Errorf("exec: unknown table %q", table)
}

// Repeated implements Env (fact table only).
func (s *Scanner) Repeated(table, col string) ([]types.Value, error) {
	pos := s.colPos(col)
	if table != s.fact || pos < 0 {
		return nil, fmt.Errorf("exec: repeated column %s.%s outside fact table", table, col)
	}
	c, err := s.column(pos)
	if err != nil {
		return nil, err
	}
	if c.Offsets == nil {
		return []types.Value{c.Value(s.row)}, nil
	}
	start, end := c.Offsets[s.row], c.Offsets[s.row+1]
	out := make([]types.Value, 0, end-start)
	for i := start; i < end; i++ {
		out = append(out, c.Value(int(i)))
	}
	return out, nil
}

// Sub implements Env; leaves have no substitutions.
func (s *Scanner) Sub(sqlparser.Expr) (types.Value, bool) { return types.Value{}, false }
