package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"

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
// storage layer (StoreReader); the SSD cache wraps it.
type PartitionReader interface {
	Meta(ctx context.Context, path string) (*colstore.FileMeta, error)
	Column(ctx context.Context, path string, meta *colstore.FileMeta, block, col int) (*colstore.Column, error)
}

// IndexSource is the SmartIndex seen from the executor: bitmaps of predicate
// evaluation results per (block, atom). A nil IndexSource disables indexing.
// Lookup may satisfy an atom from a complementary cached entry via bit-NOT
// (paper Fig. 7); Store always receives the atom's positive form result.
type IndexSource interface {
	// Lookup returns the positive-form evaluation bitmap for the atom over
	// the block of n records, when the index can answer it (directly, via a
	// complementary cached entry, or from range metadata). Implementations
	// charge their simulated lookup cost to the context's bill.
	Lookup(ctx context.Context, blockID string, atom plan.Atom, n int) (*bitmap.Bitmap, bool)
	// Store offers the atom's freshly evaluated positive-form bitmap. The
	// executor keeps using (and may mutate) bm after the call, so an index
	// that retains it must copy it.
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
	BlocksPruned  int64 // skipped via footer min/max stats
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

// EstimateBytes approximates the result's wire size for the transport's
// simulated billing.
func (r *TaskResult) EstimateBytes() int64 {
	var n int64
	for _, row := range r.Rows {
		n += estimateRow(row)
	}
	if r.Groups != nil {
		for _, g := range r.Groups.M {
			n += g.estimate()
		}
	}
	return n + 64
}

// EstimateGroups is EstimateBytes for a result holding just these groups
// (one shuffle frame).
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

// RunTask executes one sub-plan: scan the fact partition, filter with
// SmartIndex assistance, join broadcast dimensions, and emit projected rows
// or partial aggregates. Billing uses only the context's bill; predicate
// CPU time is not priced (local execution paths).
func RunTask(ctx context.Context, task plan.TaskSpec, reader PartitionReader, idx IndexSource) (*TaskResult, error) {
	return RunTaskModel(ctx, task, reader, idx, nil)
}

// RunTaskModel is RunTask with a cost model: when non-nil, predicate
// evaluation over fetched column bytes is charged as CPU scan time, and a
// task split across workers composes per-worker bills along the critical
// path. Leaves pass their model; local/test paths pass nil.
func RunTaskModel(ctx context.Context, task plan.TaskSpec, reader PartitionReader, idx IndexSource, model *sim.CostModel) (*TaskResult, error) {
	p := task.Plan
	// The scan span collects the per-task breakdown behind EXPLAIN
	// ANALYZE: index and cache instrumentation downstream counts into it
	// via the context.
	ctx, span := trace.StartSpan(ctx, "scan")
	span.SetAttr("partition", task.Partition.Path)
	defer span.Finish()
	s, err := newScanner(ctx, task, reader, idx, model)
	if err != nil {
		return nil, err
	}
	res := &TaskResult{}
	if p.Mode == plan.ModeAgg {
		res.Groups = NewGroups(len(p.Aggs))
	}
	nb := len(s.meta.Blocks)
	workers := effectiveWorkers(task.Workers, nb, p)
	switch {
	case workers <= 1:
		// Serial reference path: per-block partials merged in block order —
		// the same result structure the parallel path produces, so both are
		// bit-identical (float aggregation order included). A pushed-down
		// LIMIT stops mid-stream (which is why it is serial) and gathers
		// every block into one partial.
		var part blockPartial
		for bi, done := 0, false; bi < nb && !done; bi++ {
			if done, err = s.scanBlock(bi, &part); err != nil {
				return nil, err
			}
			if p.ScanLimit < 0 {
				res.fold(&part)
				part = blockPartial{}
			}
		}
		res.fold(&part)
	default:
		if _, err := s.scanParallel(ctx, workers, res); err != nil {
			return nil, err
		}
	}
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

// effectiveWorkers resolves the intra-task parallelism degree: the task's
// request (0 means GOMAXPROCS), clamped to the block count. LIMIT pushdown
// forces serial execution because its early exit crosses block boundaries.
func effectiveWorkers(requested, blocks int, p *plan.PhysicalPlan) int {
	if p.ScanLimit >= 0 {
		return 1
	}
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > blocks {
		w = blocks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// blockPartial is what scanning one block yields. Serial and parallel paths
// both fold partials into the task result in ascending block order, so float
// aggregation order — and every output bit — is independent of the workers.
type blockPartial struct {
	stats  ScanStats
	rows   [][]types.Value
	groups *Groups // nil until a row is aggregated
	count  int64   // rows of a block answered as a pure COUNT(*)
	err    error
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

// errNeedsColumn stops a block scanned on the task's own goroutine at its
// first column read; the stripe then moves to a goroutine of its own.
var errNeedsColumn = errors.New("exec: block needs a column read")

// scanParallel splits the task's blocks over workers. Blocks are statically
// striped (worker w takes blocks w, w+N, w+2N, ...) so each worker's charge
// set — and hence its bill — is deterministic regardless of goroutine
// scheduling. Worker bills compose into the task bill along the critical
// path: resource totals sum, elapsed time advances by the slowest worker,
// which is what models intra-node parallel speedup in simulation. A stripe
// runs on the caller's goroutine while footers prune its blocks or bitmaps
// answer them, and from its first column read on one of its own (spawned
// counts those): a warm task starts none.
func (s *scanner) scanParallel(ctx context.Context, workers int, res *TaskResult) (spawned int, err error) {
	partials := make([]blockPartial, len(s.meta.Blocks))
	parentBill := storage.BillFrom(ctx)
	bills := make([]*sim.Bill, 0, workers)
	stripes := make([]scanner, workers)
	var wg sync.WaitGroup
	for w := range stripes {
		wctx := ctx
		if parentBill != nil {
			b := sim.NewBill()
			bills = append(bills, b)
			wctx = storage.WithBill(ctx, b)
		}
		ws := &stripes[w]
		*ws = s.newStripe(wctx)
		ws.inline = true
		if bi := ws.scanStripe(w, workers, partials); bi < len(partials) {
			spawned++
			ws.inline = false
			wg.Add(1)
			go func(bi int) {
				defer wg.Done()
				ws.scanStripe(bi, workers, partials)
			}(bi)
		}
	}
	wg.Wait()
	if parentBill != nil {
		parentBill.AddParallel(bills...)
	}
	for bi := range partials {
		// Errors surface in block order: the lowest failing block wins,
		// whatever the interleaving. An unscanned partial past it belongs to
		// the same stripe and is never reached.
		if partials[bi].err != nil {
			return spawned, partials[bi].err
		}
		res.fold(&partials[bi])
	}
	return spawned, nil
}

// scanStripe scans blocks from, from+step, ... into their partials. It
// returns len(partials) when done or failed, or — only while s.inline — the
// first block that has to read a column; that block's index answers stay in
// s.replay, so scanning it again probes (bills, counts) nothing twice.
func (s *scanner) scanStripe(from, step int, partials []blockPartial) int {
	for bi := from; bi < len(partials); bi += step {
		_, err := s.scanBlock(bi, &partials[bi])
		if err == errNeedsColumn {
			partials[bi] = blockPartial{}
			return bi
		}
		s.replay = s.replay[:0]
		if err != nil {
			partials[bi].err = err
			break
		}
	}
	return len(partials)
}

// scanTask is what newScanner resolves once per task, so that the per-block
// and per-row loops look nothing up and render nothing. It is read-only
// while blocks are scanned and shared by the task's stripes.
type scanTask struct {
	plan   *plan.PhysicalPlan
	path   string
	meta   *colstore.FileMeta
	reader PartitionReader
	idx    IndexSource
	obs    ColumnObserver // idx, when it also indexes raw columns
	model  *sim.CostModel // nil: predicate CPU time is not billed
	fact   string

	blockIDs  []string // SmartIndex block ids, by block ordinal
	ords      []int    // position in plan.FactCols -> file ordinal
	filter    []scanClause
	ungrouped bool // agg mode with no GROUP BY, dims or post filter
	countStar bool // ungrouped, and every aggregate is COUNT(*)
	dims      []*dimTable
	outs      []boundExpr // select mode: output expressions
	keys      []boundExpr // agg mode: group-by keys
	args      []boundExpr // agg mode: aggregate arguments, aligned with plan.Aggs
}

// scanner scans a task, or one stripe of it, on one bill. It holds the block
// and row being scanned and is the Env of every expression the task
// evaluates: the current fact row plus the dimension rows matched to it.
type scanner struct {
	*scanTask
	ctx context.Context

	// per-block state
	block   int
	cols    []*colstore.Column // by FactCols position; nil until fetched
	part    *blockPartial
	sel     bitmap.Bitmap    // the block's selection vector
	inline  bool             // a column read stops the block with errNeedsColumn
	replay  []*bitmap.Bitmap // index answers (nil: miss) of the block stopped that way
	replays int              // how many of them the rescan has consumed
	slabs   groupSlabs       // where the blocks' new groups come from
	keyVals []types.Value    // group-by or join key of the current row
	keyBuf  []byte           // its encoding

	// per-row state
	row     int
	dimRows []int // per dimension: the matched row, -1 while none is bound
}

// newStripe returns a scanner over the task's blocks billing ctx.
func (t *scanTask) newStripe(ctx context.Context) scanner {
	s := scanner{scanTask: t, ctx: ctx, cols: make([]*colstore.Column, len(t.ords))}
	for range t.dims {
		s.dimRows = append(s.dimRows, -1)
	}
	return s
}

// colPos returns the fact column's position in plan.FactCols, or -1: the
// per-task ordinal table is the (short) column list itself.
func (t *scanTask) colPos(name string) int { return slices.Index(t.plan.FactCols, name) }

// scanAtom is a filter atom resolved for the task.
type scanAtom struct {
	plan.Atom        // as planned, negation intact
	col       int    // position in plan.FactCols, -1 for an unknown column
	bloom     []byte // equality atoms: the literal's bloom key
}

type scanClause struct {
	atoms  []scanAtom
	opaque []sqlparser.Expr
}

// boundExpr is an output expression, aggregate argument, group-by or join
// key bound once per task: a plain fact column to its FactCols position, read
// from the block's typed slices; anything else to Eval over the scanner.
type boundExpr struct {
	col  int // -1: evaluate expr
	expr sqlparser.Expr
}

type dimTable struct {
	plan     *plan.DimPlan
	colIdx   map[string]int // dim column -> index in Data rows
	hash     map[string][]int
	factKeys []boundExpr
	binding  string
}

// newScanner resolves the task and returns the scanner of its serial paths.
func newScanner(ctx context.Context, task plan.TaskSpec, reader PartitionReader, idx IndexSource, model *sim.CostModel) (*scanner, error) {
	p, path := task.Plan, task.Partition.Path
	meta, err := reader.Meta(ctx, path)
	if err != nil {
		return nil, fmt.Errorf("exec: meta %s: %w", path, err)
	}
	t := &scanTask{plan: p, path: path, meta: meta, reader: reader, idx: idx, model: model, fact: p.Fact().Ref.Binding()}
	t.obs, _ = idx.(ColumnObserver)
	t.ords = make([]int, len(p.FactCols))
	for i, name := range p.FactCols {
		if t.ords[i] = meta.Schema.Index(name); t.ords[i] < 0 {
			return nil, fmt.Errorf("exec: partition %s lacks column %q", path, name)
		}
	}
	if nb := len(meta.Blocks); idx != nil {
		// Block ids are "<path>#<block>" (Invalidate(path+"#") relies on it),
		// cut from one rendering of them all.
		all, ends := make([]byte, 0, nb*(len(path)+4)), make([]int, nb+1)
		for bi := 0; bi < nb; bi++ {
			all = strconv.AppendInt(append(append(all, path...), '#'), int64(bi), 10)
			ends[bi+1] = len(all)
		}
		t.blockIDs = make([]string, nb)
		for bi, str := 0, string(all); bi < nb; bi++ {
			t.blockIDs[bi] = str[ends[bi]:ends[bi+1]]
		}
	}
	t.filter = make([]scanClause, len(p.Filter.Clauses))
	for i, cl := range p.Filter.Clauses {
		t.filter[i] = t.bindClause(cl)
	}
	// With no grouping, dims or post filter a block is aggregated column by
	// column; with only COUNT(*) aggregates on top, it is just counted.
	t.ungrouped = p.Mode == plan.ModeAgg && len(p.GroupBy) == 0 && len(p.Dims) == 0 && len(p.Post) == 0
	t.countStar = t.ungrouped && len(p.Aggs) > 0
	for _, a := range p.Aggs {
		t.countStar = t.countStar && a.Star
	}
	if err := t.buildDimTables(); err != nil {
		return nil, err
	}
	t.keys = t.bindAll(p.GroupBy)
	if p.Mode != plan.ModeAgg {
		t.outs = make([]boundExpr, len(p.A.Outputs))
		for i, oi := range p.A.Outputs {
			t.outs[i] = t.bind(oi.Expr)
		}
	}
	t.args = make([]boundExpr, len(p.Aggs))
	for i, a := range p.Aggs {
		if !a.Star {
			t.args[i] = t.bind(a.Arg)
		}
	}
	s := t.newStripe(ctx)
	return &s, nil
}

func (t *scanTask) bindClause(cl plan.Clause) scanClause {
	out := scanClause{atoms: make([]scanAtom, len(cl.Atoms)), opaque: cl.Opaque}
	for i, a := range cl.Atoms {
		out.atoms[i] = scanAtom{Atom: a, col: t.colPos(a.Col)}
		if a.Op == sqlparser.OpEq {
			out.atoms[i].bloom = colstore.BloomKey(a.Val)
		}
	}
	return out
}

func (t *scanTask) bind(e sqlparser.Expr) boundExpr {
	if c, ok := e.(*sqlparser.ColumnRef); ok && c.Table == t.fact {
		if pos := t.colPos(c.Column); pos >= 0 {
			return boundExpr{col: pos}
		}
	}
	return boundExpr{col: -1, expr: e}
}

func (t *scanTask) bindAll(exprs []sqlparser.Expr) []boundExpr {
	out := make([]boundExpr, len(exprs))
	for i, e := range exprs {
		out[i] = t.bind(e)
	}
	return out
}

func (t *scanTask) buildDimTables() error {
	for _, d := range t.plan.Dims {
		dt := &dimTable{plan: d, binding: d.Table.Ref.Binding(), colIdx: make(map[string]int), factKeys: t.bindAll(d.FactKeys)}
		for i, c := range d.Needed {
			dt.colIdx[c] = i
		}
		if len(d.DimKeys) > 0 {
			dt.hash = make(map[string][]int, len(d.Data))
			keyIdx := make([]int, len(d.DimKeys))
			for i, k := range d.DimKeys {
				ord, ok := dt.colIdx[k]
				if !ok {
					return fmt.Errorf("exec: join key %q of dimension %s not among shipped columns %v", k, dt.binding, d.Needed)
				}
				keyIdx[i] = ord
			}
			keyVals := make([]types.Value, len(keyIdx))
			for ri, row := range d.Data {
				for i, ki := range keyIdx {
					keyVals[i] = row[ki]
				}
				k := GroupKey(keyVals)
				dt.hash[k] = append(dt.hash[k], ri)
			}
		}
		t.dims = append(t.dims, dt)
	}
	return nil
}

// column fetches (and keeps for the current block) the fact column chunk at
// a FactCols position.
func (s *scanner) column(pos int) (*colstore.Column, error) {
	if c := s.cols[pos]; c != nil {
		return c, nil
	}
	if s.inline {
		return nil, errNeedsColumn
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
		// fetched; with several workers this lands on per-worker bills and
		// composes along the critical path.
		if b := storage.BillFrom(s.ctx); b != nil {
			b.ChargeScan(s.model, s.meta.Blocks[s.block].ColExtents[ord].Len)
		}
	}
	return c, nil
}

// scanBlock scans one block into part; it returns done=true when a
// pushed-down LIMIT is satisfied.
func (s *scanner) scanBlock(bi int, part *blockPartial) (bool, error) {
	bm := &s.meta.Blocks[bi]
	s.block, s.part, s.replays = bi, part, 0
	clear(s.cols)
	part.stats.BlocksTotal++
	// Footer-stats pruning: a block where some clause cannot be satisfied
	// by any row is skipped without touching data or indexes.
	for i := range s.filter {
		if clauseImpossible(&s.filter[i], s.ords, bm) {
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
	// Row-wise output over selected records, in ascending row order.
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
func (s *scanner) foldSelection(sel *bitmap.Bitmap, selected int64) (err error) {
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
// zero in row order, min and max move on < and > only (a leading NaN stays).
func foldValues[T int64 | float64](vals []T, sel *bitmap.Bitmap) (n int64, sum, lo, hi T) {
	sel.ForEachSet(func(r int) {
		v := vals[r]
		if n == 0 {
			lo, hi = v, v
		}
		n++
		sum += v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	})
	return n, sum, lo, hi
}

// clauseImpossible prunes via footer min/max: true when every leaf of the
// clause is an atom that no row in the block can satisfy.
func clauseImpossible(cl *scanClause, ords []int, bm *colstore.BlockMeta) bool {
	if len(cl.opaque) > 0 || len(cl.atoms) == 0 {
		return false
	}
	for i := range cl.atoms {
		a := &cl.atoms[i]
		if a.col < 0 || !atomImpossible(a, &bm.Stats.Columns[ords[a.col]]) {
			return false
		}
	}
	return true
}

// atomImpossible reports whether stats prove no value satisfies the atom:
// the min/max range for ordered comparisons, plus the block's bloom filter
// for equality (the "range bloom" of paper Fig. 6). NULL handling leans on
// EvalAtom's guard ordering: a NULL value (or NULL literal) is false before
// negation applies, so NULL rows satisfy neither an atom nor its negation
// and never block pruning on their own.
func atomImpossible(a *scanAtom, st *colstore.Stats) bool {
	if st.Min.IsNull() {
		// Min is NULL exactly when the chunk has no non-NULL value; an
		// all-NULL (or empty) chunk satisfies no atom, negated included.
		return true
	}
	if a.Val.IsNull() {
		// A NULL literal matches nothing, for every operator.
		return true
	}
	if a.Negated || a.Op == sqlparser.OpContains {
		// Min/max say nothing about substring membership or about what a
		// negation misses in a mixed-NULL chunk.
		return false
	}
	if a.Op == sqlparser.OpEq && st.Bloom != nil && !st.Bloom.MayContain(a.bloom) {
		return true
	}
	cmpMin, errMin := types.Compare(a.Val, st.Min)
	cmpMax, errMax := types.Compare(a.Val, st.Max)
	if errMin != nil || errMax != nil {
		return false
	}
	switch a.Op {
	case sqlparser.OpEq:
		return cmpMin < 0 || cmpMax > 0
	case sqlparser.OpNe:
		// Every non-NULL value equals val, so != matches no non-NULL row;
		// NULL rows match nothing regardless.
		return cmpMin == 0 && cmpMax == 0
	case sqlparser.OpLt:
		return cmpMin <= 0 // val <= min: nothing below val
	case sqlparser.OpLe:
		return cmpMin < 0
	case sqlparser.OpGt:
		return cmpMax >= 0
	case sqlparser.OpGe:
		return cmpMax > 0
	default:
		return false
	}
}

// selection computes the block's selection bitmap from the pushed-down CNF.
// decided reports whether every clause was answered from bitmaps.
func (s *scanner) selection(n int) (*bitmap.Bitmap, bool, error) {
	sel := &s.sel
	sel.Fill(n)
	allIndexed := true
	for ci := range s.filter {
		cl := &s.filter[ci]
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

// lookup asks the index for the atom over the current block — or, for a
// block being scanned again off the task's goroutine, takes the answer the
// first scan got.
func (s *scanner) lookup(a *scanAtom, n int) (*bitmap.Bitmap, bool) {
	if s.replays < len(s.replay) {
		s.replays++
		return s.replay[s.replays-1], s.replay[s.replays-1] != nil
	}
	bm, ok := s.idx.Lookup(s.ctx, s.blockIDs[s.block], a.Atom, n)
	if !ok {
		bm = nil
	}
	if s.inline {
		s.replay = append(s.replay, bm)
		s.replays++
	}
	return bm, ok
}

// atomBitmap resolves one atom: SmartIndex hit, or evaluate + store.
// fromIndex reports a cache hit. The atom is passed to the index with its
// negation intact: only the index knows whether bit-NOT is sound for the
// block (it is not when the column has NULLs, which satisfy neither the
// predicate nor its negation).
func (s *scanner) atomBitmap(a *scanAtom, n int) (*bitmap.Bitmap, bool, error) {
	if s.idx != nil {
		if cached, ok := s.lookup(a, n); ok {
			s.part.stats.IndexHits++
			if cached.Len() != n {
				return nil, false, fmt.Errorf("exec: index bitmap length %d != block rows %d", cached.Len(), n)
			}
			return cached, true, nil
		}
		s.part.stats.IndexMisses++
	}
	if a.col < 0 {
		return nil, false, fmt.Errorf("exec: filter column %q is not among the plan's fact columns", a.Col)
	}
	col, err := s.column(a.col)
	if err != nil {
		return nil, false, err
	}
	if s.obs != nil {
		s.obs.ObserveColumn(s.blockIDs[s.block], a.Col, col, n)
	}
	// The index stores the canonical, positive form.
	positive := a.Atom
	positive.Negated = false
	pos := evalAtomOverColumn(positive, col, n)
	if s.idx != nil {
		s.idx.Store(s.blockIDs[s.block], positive, pos, s.meta.Blocks[s.block].Stats.Columns[s.ords[a.col]])
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
func (s *scanner) opaqueBitmap(e sqlparser.Expr, n int) (*bitmap.Bitmap, error) {
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
func (s *scanner) value(b boundExpr) (types.Value, error) {
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
func (s *scanner) joinFrom(di int) (bool, error) {
	if di == len(s.dims) {
		return s.emitJoined()
	}
	dt := s.dims[di]
	d := dt.plan

	var candidates []int
	n := len(d.Data) // cross join: every row is a candidate
	if len(d.DimKeys) > 0 {
		s.keyVals = s.keyVals[:0]
		for _, fk := range dt.factKeys {
			v, err := s.value(fk)
			if err != nil {
				return false, err
			}
			if v.IsNull() { // NULL keys never join
				break
			}
			s.keyVals = append(s.keyVals, v)
		}
		n = 0
		if len(s.keyVals) == len(dt.factKeys) {
			s.keyBuf = AppendGroupKey(s.keyBuf[:0], s.keyVals)
			candidates = dt.hash[string(s.keyBuf)]
			n = len(candidates)
		}
	}

	// The dimension is bound only while one of its candidates is expanded:
	// a LEFT OUTER non-match, and the next fact row, must read it NULL.
	matched := false
	for i := 0; i < n; i++ {
		s.dimRows[di] = i
		if candidates != nil {
			s.dimRows[di] = candidates[i]
		}
		done := false
		ok, err := clausesTrue(d.Residual, s)
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
	if !matched && d.Type == sqlparser.JoinLeftOuter {
		// Preserve the fact row with NULL dimension columns.
		return s.joinFrom(di + 1)
	}
	return false, nil
}

// emitJoined applies post-join clauses then emits the joined row: into the
// block's groups, or as a projected row.
func (s *scanner) emitJoined() (bool, error) {
	if ok, err := clausesTrue(s.plan.Post, s); err != nil || !ok {
		return false, err
	}
	part := s.part
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
	row := make([]types.Value, len(s.outs))
	for i, o := range s.outs {
		v, err := s.value(o)
		if err != nil {
			return false, err
		}
		row[i] = v
	}
	part.rows = append(part.rows, row)
	return s.plan.ScanLimit >= 0 && int64(len(part.rows)) >= s.plan.ScanLimit, nil
}

// Col implements Env for the expressions bind leaves to Eval: the current
// fact row's columns, resolved through the task's ordinal table, and the
// dimension rows bound to it.
func (s *scanner) Col(table, col string) (types.Value, error) {
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
		return dt.plan.Data[s.dimRows[di]][ci], nil
	}
	return types.Value{}, fmt.Errorf("exec: unknown table %q", table)
}

// Repeated implements Env (fact table only).
func (s *scanner) Repeated(table, col string) ([]types.Value, error) {
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
func (s *scanner) Sub(sqlparser.Expr) (types.Value, bool) { return types.Value{}, false }
