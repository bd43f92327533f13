package exec

import (
	"context"
	"fmt"
	"runtime"
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
	meta, err := reader.Meta(ctx, task.Partition.Path)
	if err != nil {
		return nil, fmt.Errorf("exec: meta %s: %w", task.Partition.Path, err)
	}
	s := &scanner{
		ctx:    ctx,
		plan:   p,
		path:   task.Partition.Path,
		meta:   meta,
		reader: reader,
		idx:    idx,
		model:  model,
		fact:   p.Fact().Ref.Binding(),
	}
	if err := s.resolveColumns(); err != nil {
		return nil, err
	}
	if err := s.buildDimTables(); err != nil {
		return nil, err
	}

	res := &TaskResult{}
	if p.Mode == plan.ModeAgg {
		res.Groups = NewGroups(len(p.Aggs))
	}
	nb := len(meta.Blocks)
	workers := effectiveWorkers(task.Workers, nb, p)
	switch {
	case p.ScanLimit >= 0:
		// Pushed-down LIMIT stops mid-stream; its cross-block early exit
		// is inherently serial, so it keeps the direct-accumulation path.
		for bi := 0; bi < nb; bi++ {
			res.Stats.BlocksTotal++
			done, err := s.scanBlock(bi, res)
			if err != nil {
				return nil, err
			}
			if done {
				break
			}
		}
	case workers <= 1:
		// Serial reference path: per-block partials merged in block order —
		// the same result structure the parallel path produces, so both are
		// bit-identical (float aggregation order included).
		for bi := 0; bi < nb; bi++ {
			part, err := s.scanBlockPartial(bi)
			if err != nil {
				return nil, err
			}
			mergePartial(res, part)
		}
	default:
		if err := s.scanParallel(ctx, workers, nb, res); err != nil {
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

// scanBlockPartial scans one block into a fresh partial result. Partials are
// merged in ascending block order by both the serial and parallel paths, so
// float aggregation order — and therefore every output bit — is independent
// of the worker count.
func (s *scanner) scanBlockPartial(bi int) (*TaskResult, error) {
	part := &TaskResult{}
	if s.plan.Mode == plan.ModeAgg {
		part.Groups = NewGroups(len(s.plan.Aggs))
	}
	part.Stats.BlocksTotal++
	if _, err := s.scanBlock(bi, part); err != nil {
		return nil, err
	}
	return part, nil
}

// mergePartial folds one block's partial into the task result.
func mergePartial(res, part *TaskResult) {
	res.Stats.Add(part.Stats)
	res.Rows = append(res.Rows, part.Rows...)
	if part.Groups != nil && res.Groups != nil {
		res.Groups.Merge(part.Groups)
	}
}

// scanParallel fans the task's blocks over a bounded worker pool. Blocks are
// statically striped (worker w takes blocks w, w+N, w+2N, ...) so each
// worker's charge set — and hence its bill — is deterministic regardless of
// goroutine scheduling. Worker bills compose into the task bill along the
// critical path: resource totals sum, elapsed time advances by the slowest
// worker, which is what models intra-node parallel speedup in simulation.
func (s *scanner) scanParallel(ctx context.Context, workers, nb int, res *TaskResult) error {
	partials := make([]*TaskResult, nb)
	errs := make([]error, nb)
	parentBill := storage.BillFrom(ctx)
	bills := make([]*sim.Bill, 0, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wctx := ctx
		if parentBill != nil {
			b := sim.NewBill()
			bills = append(bills, b)
			wctx = storage.WithBill(ctx, b)
		}
		ws := s.forWorker(wctx)
		wg.Add(1)
		go func(w int, ws *scanner) {
			defer wg.Done()
			for bi := w; bi < nb; bi += workers {
				part, err := ws.scanBlockPartial(bi)
				if err != nil {
					errs[bi] = err
					return
				}
				partials[bi] = part
			}
		}(w, ws)
	}
	wg.Wait()
	if parentBill != nil {
		parentBill.AddParallel(bills...)
	}
	for bi := 0; bi < nb; bi++ {
		// Errors surface in block order: the lowest failing block wins, so
		// the reported error does not depend on worker interleaving. A nil
		// partial past a failing block belongs to the same stripe and is
		// never reached.
		if errs[bi] != nil {
			return errs[bi]
		}
		if partials[bi] != nil {
			mergePartial(res, partials[bi])
		}
	}
	return nil
}

// forWorker derives a worker-private scanner: shared read-only task state
// (plan, meta, resolved columns, dimension hash tables), private context
// (carrying the worker's bill) and per-block scratch.
func (s *scanner) forWorker(ctx context.Context) *scanner {
	ws := *s
	ws.ctx = ctx
	ws.block = 0
	ws.cols = nil
	ws.stats = nil
	return &ws
}

// scanner carries per-task state.
type scanner struct {
	ctx    context.Context
	plan   *plan.PhysicalPlan
	path   string
	meta   *colstore.FileMeta
	reader PartitionReader
	idx    IndexSource
	model  *sim.CostModel // nil: predicate CPU time is not billed
	fact   string

	colIdx map[string]int // fact column name -> file ordinal
	dims   []*dimTable

	// per-block state
	block int
	cols  map[int]*colstore.Column
	stats *ScanStats
}

type dimTable struct {
	plan    *plan.DimPlan
	colIdx  map[string]int // dim column -> index in Data rows
	hash    map[string][]int
	binding string
}

func (s *scanner) resolveColumns() error {
	s.colIdx = make(map[string]int, len(s.plan.FactCols))
	for _, name := range s.plan.FactCols {
		ord := s.meta.Schema.Index(name)
		if ord < 0 {
			return fmt.Errorf("exec: partition %s lacks column %q", s.path, name)
		}
		s.colIdx[name] = ord
	}
	return nil
}

func (s *scanner) buildDimTables() error {
	for _, d := range s.plan.Dims {
		dt := &dimTable{plan: d, binding: d.Table.Ref.Binding(), colIdx: make(map[string]int)}
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
		s.dims = append(s.dims, dt)
	}
	return nil
}

// blockID identifies a block for SmartIndex keys.
func (s *scanner) blockID(block int) string {
	return fmt.Sprintf("%s#%d", s.path, block)
}

// column fetches (and caches for the current block) a fact column chunk.
func (s *scanner) column(name string) (*colstore.Column, error) {
	ord := s.colIdx[name]
	if c, ok := s.cols[ord]; ok {
		return c, nil
	}
	c, err := s.reader.Column(s.ctx, s.path, s.meta, s.block, ord)
	if err != nil {
		return nil, err
	}
	s.cols[ord] = c
	s.stats.ColumnReads++
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

// scanBlock processes one block; it returns done=true when a pushed-down
// LIMIT is satisfied.
func (s *scanner) scanBlock(bi int, res *TaskResult) (bool, error) {
	bm := s.meta.Blocks[bi]
	s.block = bi
	s.cols = make(map[int]*colstore.Column)
	s.stats = &res.Stats

	// Footer-stats pruning: a block where some clause cannot be satisfied
	// by any row is skipped without touching data or indexes.
	for _, cl := range s.plan.Filter.Clauses {
		if s.clauseImpossible(cl, bm) {
			res.Stats.BlocksPruned++
			return false, nil
		}
	}

	sel, decided, err := s.selection(bm)
	if err != nil {
		return false, err
	}
	res.Stats.RowsScanned += int64(bm.Stats.NumRows)
	selected := sel.Count()
	res.Stats.RowsSelected += int64(selected)
	if selected == 0 {
		res.Stats.BlocksEmpty++
		return false, nil
	}

	// The paper's headline shortcut (Fig. 7): a fully indexed COUNT(*)
	// needs no data access at all.
	if s.plan.Mode == plan.ModeAgg && s.pureCountStar() {
		if decided && len(s.cols) == 0 {
			res.Stats.ShortCircuits++
		}
		grp := res.Groups.Get(nil)
		for i := range s.plan.Aggs {
			grp.Cells[i].Count += int64(selected)
		}
		return false, nil
	}

	// Row-wise output over selected records.
	emitDone := false
	var rowErr error
	sel.ForEachSet(func(r int) {
		if emitDone || rowErr != nil {
			return
		}
		done, err := s.emitRecord(r, res)
		if err != nil {
			rowErr = err
			return
		}
		if done {
			emitDone = true
		}
	})
	return emitDone, rowErr
}

// pureCountStar reports whether the block's work reduces to counting
// selected rows: aggregation with no grouping, no dims, no post filter and
// only COUNT(*) aggregates.
func (s *scanner) pureCountStar() bool {
	if len(s.plan.GroupBy) != 0 || len(s.plan.Dims) != 0 || len(s.plan.Post) != 0 {
		return false
	}
	for _, a := range s.plan.Aggs {
		if !a.Star {
			return false
		}
	}
	return len(s.plan.Aggs) > 0
}

// clauseImpossible prunes via footer min/max: true when every leaf of the
// clause is an atom that no row in the block can satisfy.
func (s *scanner) clauseImpossible(cl plan.Clause, bm colstore.BlockMeta) bool {
	if len(cl.Opaque) > 0 || len(cl.Atoms) == 0 {
		return false
	}
	for _, a := range cl.Atoms {
		ord, ok := s.colIdx[a.Col]
		if !ok {
			return false
		}
		if !atomImpossible(a, bm.Stats.Columns[ord]) {
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
func atomImpossible(a plan.Atom, st colstore.Stats) bool {
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
	if a.Op == sqlparser.OpEq && st.Bloom != nil && !st.Bloom.MayContain(colstore.BloomKey(a.Val)) {
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
func (s *scanner) selection(bm colstore.BlockMeta) (*bitmap.Bitmap, bool, error) {
	n := bm.Stats.NumRows
	sel := bitmap.NewFull(n)
	allIndexed := true
	for _, cl := range s.plan.Filter.Clauses {
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
		for _, a := range cl.Atoms {
			abm, fromIndex, err := s.atomBitmap(a, n)
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
		for _, op := range cl.Opaque {
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
// predicate nor its negation).
func (s *scanner) atomBitmap(a plan.Atom, n int) (*bitmap.Bitmap, bool, error) {
	blockID := s.blockID(s.block)
	if s.idx != nil {
		if cached, ok := s.idx.Lookup(s.ctx, blockID, a, n); ok {
			s.stats.IndexHits++
			if cached.Len() != n {
				return nil, false, fmt.Errorf("exec: index bitmap length %d != block rows %d", cached.Len(), n)
			}
			return cached, true, nil
		}
		s.stats.IndexMisses++
	}
	col, err := s.column(a.Col)
	if err != nil {
		return nil, false, err
	}
	if obs, ok := s.idx.(ColumnObserver); ok {
		obs.ObserveColumn(blockID, a.Col, col, n)
	}
	pos := evalAtomOverColumn(positive(a), col, n)
	if s.idx != nil {
		ord := s.colIdx[a.Col]
		s.idx.Store(blockID, positive(a), pos, s.meta.Blocks[s.block].Stats.Columns[ord])
	}
	if a.Negated {
		// Evaluate the negated form directly over the column: NULLs (and
		// for repeated columns, records with no matching element) follow
		// EvalAtom's semantics rather than a blind bit-NOT.
		return evalAtomOverColumn(a, col, n), false, nil
	}
	return pos, false, nil
}

// positive strips negation so the index stores the canonical form.
func positive(a plan.Atom) plan.Atom {
	a.Negated = false
	return a
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
	env := &factEnv{s: s}
	for r := 0; r < n; r++ {
		env.row = r
		ok, err := EvalBool(e, env)
		if err != nil {
			return nil, err
		}
		if ok {
			out.Set(r)
		}
	}
	return out, nil
}

// emitRecord joins record r against the dimensions and emits outputs or
// updates partial aggregates. done=true when the pushed-down limit is hit.
func (s *scanner) emitRecord(r int, res *TaskResult) (bool, error) {
	env := &joinEnv{fact: &factEnv{s: s, row: r}, dimRows: make([]int, len(s.dims))}
	return s.joinFrom(0, env, res)
}

// joinFrom recursively expands dimension matches (star join fan-out).
func (s *scanner) joinFrom(di int, env *joinEnv, res *TaskResult) (bool, error) {
	if di == len(s.dims) {
		return s.emitJoined(env, res)
	}
	dt := s.dims[di]
	d := dt.plan

	var candidates []int
	switch {
	case len(d.DimKeys) == 0: // cross join
		candidates = make([]int, len(d.Data))
		for i := range d.Data {
			candidates[i] = i
		}
	default:
		keyVals := make([]types.Value, len(d.FactKeys))
		for i, fk := range d.FactKeys {
			v, err := Eval(fk, env.fact)
			if err != nil {
				return false, err
			}
			if v.IsNull() { // NULL keys never join
				candidates = nil
				keyVals = nil
				break
			}
			keyVals[i] = v
		}
		if keyVals != nil {
			candidates = dt.hash[GroupKey(keyVals)]
		}
	}

	matched := false
	for _, ri := range candidates {
		env.dimRows[di] = ri
		env.present = append(env.present, di)
		ok, err := s.residualOK(dt, env)
		if err != nil {
			return false, err
		}
		if ok {
			done, err := s.joinFrom(di+1, env, res)
			if err != nil || done {
				env.present = env.present[:len(env.present)-1]
				return done, err
			}
			matched = true
		}
		env.present = env.present[:len(env.present)-1]
	}
	if !matched && d.Type == sqlparser.JoinLeftOuter {
		// Preserve the fact row with NULL dimension columns.
		return s.joinFrom(di+1, env, res)
	}
	return false, nil
}

func (s *scanner) residualOK(dt *dimTable, env *joinEnv) (bool, error) {
	for _, cl := range dt.plan.Residual {
		ok, err := s.clauseHolds(cl, env)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

func (s *scanner) clauseHolds(cl plan.Clause, env Env) (bool, error) {
	for _, a := range cl.Atoms {
		v, err := env.Col(a.Table, a.Col)
		if err != nil {
			return false, err
		}
		if plan.EvalAtom(a, v) {
			return true, nil
		}
	}
	for _, op := range cl.Opaque {
		ok, err := EvalBool(op, env)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// emitJoined applies post-join clauses then emits the joined row.
func (s *scanner) emitJoined(env *joinEnv, res *TaskResult) (bool, error) {
	for _, cl := range s.plan.Post {
		ok, err := s.clauseHolds(cl, env)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	res.Stats.RowsEmitted++
	if s.plan.Mode == plan.ModeAgg {
		return false, res.Groups.UpdateRow(s.plan.GroupBy, s.plan.Aggs, env)
	}
	row := make([]types.Value, len(s.plan.A.Outputs))
	for i, oi := range s.plan.A.Outputs {
		v, err := Eval(oi.Expr, env)
		if err != nil {
			return false, err
		}
		row[i] = v
	}
	res.Rows = append(res.Rows, row)
	return s.plan.ScanLimit >= 0 && int64(len(res.Rows)) >= s.plan.ScanLimit, nil
}

// factEnv exposes the current fact record's columns.
type factEnv struct {
	s   *scanner
	row int
}

// Col implements Env over the fact block.
func (e *factEnv) Col(table, col string) (types.Value, error) {
	if table != e.s.fact {
		return types.Value{}, fmt.Errorf("exec: column %s.%s not available in fact scan", table, col)
	}
	c, err := e.s.column(col)
	if err != nil {
		return types.Value{}, err
	}
	if c.Offsets != nil {
		start, end := c.Offsets[e.row], c.Offsets[e.row+1]
		if start == end {
			return types.NullValue(), nil
		}
		return c.Value(int(start)), nil
	}
	return c.Value(e.row), nil
}

// Repeated implements Env.
func (e *factEnv) Repeated(table, col string) ([]types.Value, error) {
	if table != e.s.fact {
		return nil, fmt.Errorf("exec: repeated column %s.%s outside fact table", table, col)
	}
	c, err := e.s.column(col)
	if err != nil {
		return nil, err
	}
	if c.Offsets == nil {
		return []types.Value{c.Value(e.row)}, nil
	}
	start, end := c.Offsets[e.row], c.Offsets[e.row+1]
	out := make([]types.Value, 0, end-start)
	for i := start; i < end; i++ {
		out = append(out, c.Value(int(i)))
	}
	return out, nil
}

// Sub implements Env; leaves have no substitutions.
func (e *factEnv) Sub(sqlparser.Expr) (types.Value, bool) { return types.Value{}, false }

// joinEnv exposes fact columns plus the currently matched dimension rows.
type joinEnv struct {
	fact    *factEnv
	dimRows []int
	present []int // dim ordinals currently bound (in join order)
}

// Col implements Env across fact and joined dimensions.
func (e *joinEnv) Col(table, col string) (types.Value, error) {
	if table == e.s().fact {
		return e.fact.Col(table, col)
	}
	for di, dt := range e.s().dims {
		if dt.binding != table {
			continue
		}
		if !e.bound(di) {
			return types.NullValue(), nil // left-outer non-match
		}
		ci, ok := dt.colIdx[col]
		if !ok {
			return types.Value{}, fmt.Errorf("exec: dimension %s has no shipped column %q", table, col)
		}
		return dt.plan.Data[e.dimRows[di]][ci], nil
	}
	return types.Value{}, fmt.Errorf("exec: unknown table %q", table)
}

func (e *joinEnv) bound(di int) bool {
	for _, p := range e.present {
		if p == di {
			return true
		}
	}
	return false
}

func (e *joinEnv) s() *scanner { return e.fact.s }

// Repeated implements Env (fact table only).
func (e *joinEnv) Repeated(table, col string) ([]types.Value, error) {
	return e.fact.Repeated(table, col)
}

// Sub implements Env.
func (e *joinEnv) Sub(sqlparser.Expr) (types.Value, bool) { return types.Value{}, false }
