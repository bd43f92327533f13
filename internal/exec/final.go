package exec

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// Result is the final query result returned to the client.
type Result struct {
	Columns []string
	Types   []types.Type
	Rows    [][]types.Value
	// Partial marks a result assembled from an incomplete task set (the
	// paper's processed-ratio / elapse-time early return, §III-C).
	Partial bool
	// ProcessedRatio is the fraction of tasks whose results are included.
	ProcessedRatio float64
}

// Clone deep-copies the result, so that a holder that shares it out (the
// result cache, a statement flight) is isolated from what each client does
// to its copy.
func (r *Result) Clone() *Result {
	out := &Result{
		Columns:        append([]string(nil), r.Columns...),
		Types:          append([]types.Type(nil), r.Types...),
		Partial:        r.Partial,
		ProcessedRatio: r.ProcessedRatio,
	}
	if r.Rows != nil {
		out.Rows = make([][]types.Value, len(r.Rows))
		for i, row := range r.Rows {
			cp := make([]types.Value, len(row))
			copy(cp, row)
			out.Rows[i] = cp
		}
	}
	return out
}

// MergeResults folds leaf/stem partial results together — the stem server's
// aggregation step. Select-mode rows are concatenated (bounded by limit when
// non-negative and no ordering is pending); agg-mode groups are merged.
func MergeResults(p *plan.PhysicalPlan, acc, next *TaskResult) *TaskResult {
	if acc == nil {
		return next
	}
	if next == nil {
		return acc
	}
	if p.Mode == plan.ModeAgg {
		acc.Groups.Merge(next.Groups)
	} else {
		acc.Rows = append(acc.Rows, next.Rows...)
		if p.ScanLimit >= 0 && int64(len(acc.Rows)) > p.ScanLimit {
			acc.Rows = acc.Rows[:p.ScanLimit]
		}
	}
	acc.Stats.Add(next.Stats)
	return acc
}

// Finalize turns the merged partial result into the client-facing rows:
// aggregate finalization, output-expression evaluation, HAVING, ORDER BY
// and LIMIT (the master's half of paper Fig. 3).
func Finalize(p *plan.PhysicalPlan, merged *TaskResult) (*Result, error) {
	a := p.A
	res := &Result{}
	visible := make([]int, 0, len(a.Outputs))
	for i, oi := range a.Outputs {
		if oi.Hidden {
			continue
		}
		visible = append(visible, i)
		res.Columns = append(res.Columns, oi.Name)
		res.Types = append(res.Types, oi.Type)
	}

	var wide [][]types.Value // all outputs including hidden
	if p.Mode == plan.ModeAgg {
		var groups *Groups
		if merged != nil {
			groups = merged.Groups
		}
		if groups == nil {
			groups = NewGroups(len(p.Aggs))
		}
		// A global aggregation with no input rows still yields one group.
		if len(groups.M) == 0 && len(p.GroupBy) == 0 {
			groups.Get(nil)
		}
		env := newAggEnv(p)
		// An output that is itself a group key or an aggregate — the common
		// case — is copied from its slot without entering the evaluator.
		outSlot := make([]int, len(a.Outputs))
		for i, oi := range a.Outputs {
			outSlot[i] = -1
			if s, ok := env.slots[oi.Expr]; ok {
				outSlot[i] = s
			}
		}
		nOut := len(a.Outputs)
		wide = make([][]types.Value, 0, len(groups.M))
		var slab []types.Value
		for _, grp := range groups.M {
			if err := env.bind(p, grp); err != nil {
				return nil, err
			}
			if a.Having != nil {
				ok, err := EvalBool(a.Having, env)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			if len(slab) < nOut {
				slab = make([]types.Value, nOut*min(len(groups.M)-len(wide), 1024))
			}
			row := slab[:nOut:nOut]
			slab = slab[nOut:]
			for i, oi := range a.Outputs {
				if s := outSlot[i]; s >= 0 {
					row[i] = env.vals[s]
					continue
				}
				v, err := Eval(oi.Expr, env)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			wide = append(wide, row)
		}
	} else if merged != nil {
		wide = merged.Rows
	}

	var err error
	switch {
	case len(a.OrderBy) > 0:
		var sortErr error
		wide = orderRows(wide, a.Limit, func(i, j int) int {
			for _, k := range a.OrderBy {
				c, err := types.Compare(wide[i][k.Output], wide[j][k.Output])
				if err != nil {
					sortErr = err
					return 0
				}
				if c == 0 {
					continue
				}
				if k.Desc {
					return -c
				}
				return c
			}
			return 0
		})
		err = sortErr
	case p.Mode == plan.ModeAgg:
		// Deterministic output for unordered aggregations: order by the
		// rows' encoded form, rendered once per row into one shared string.
		var buf []byte
		ends := make([]int, len(wide))
		for i, row := range wide {
			buf = AppendGroupKey(buf, row)
			ends[i] = len(buf)
		}
		all := string(buf)
		key := func(i int) string {
			if i == 0 {
				return all[:ends[0]]
			}
			return all[ends[i-1]:ends[i]]
		}
		wide = orderRows(wide, a.Limit, func(i, j int) int { return strings.Compare(key(i), key(j)) })
	case a.Limit >= 0 && int64(len(wide)) > a.Limit:
		wide = wide[:a.Limit]
	}
	if err != nil {
		return nil, err
	}

	if p.Mode == plan.ModeAgg && len(visible) == len(a.Outputs) {
		res.Rows = wide // built above, owned by no one else
		return res, nil
	}
	// Drop hidden columns; rows of a task result are copied, not handed on.
	res.Rows = make([][]types.Value, len(wide))
	slab := make([]types.Value, len(wide)*len(visible))
	for ri, row := range wide {
		out := slab[ri*len(visible) : (ri+1)*len(visible) : (ri+1)*len(visible)]
		for i, ci := range visible {
			out[i] = row[ci]
		}
		res.Rows[ri] = out
	}
	return res, nil
}

// orderRows returns rows in the order cmp defines over their indices, ties
// kept in input order, cut to limit when limit >= 0. With a limit below the
// row count it selects the first limit rows with a bounded heap, O(n log
// limit), instead of sorting them all.
func orderRows(rows [][]types.Value, limit int64, cmp func(i, j int) int) [][]types.Value {
	before := func(i, j int) int {
		if c := cmp(i, j); c != 0 {
			return c
		}
		return i - j
	}
	n := len(rows)
	var idx []int
	if limit >= 0 && limit < int64(n) {
		// Max-heap of the best limit indices seen so far: the root is the
		// one a better candidate evicts.
		k := int(limit)
		idx = make([]int, 0, k)
		down := func(at int) {
			for {
				worst := at
				for c := 2*at + 1; c <= 2*at+2 && c < len(idx); c++ {
					if before(idx[c], idx[worst]) > 0 {
						worst = c
					}
				}
				if worst == at {
					return
				}
				idx[at], idx[worst] = idx[worst], idx[at]
				at = worst
			}
		}
		for i := 0; i < n && k > 0; i++ {
			if len(idx) < k {
				idx = append(idx, i)
				if len(idx) == k {
					for at := k/2 - 1; at >= 0; at-- {
						down(at)
					}
				}
			} else if before(i, idx[0]) < 0 {
				idx[0] = i
				down(0)
			}
		}
	} else {
		idx = make([]int, n)
		for i := range idx {
			idx[i] = i
		}
	}
	slices.SortFunc(idx, before)
	out := make([][]types.Value, len(idx))
	for i, at := range idx {
		out[i] = rows[at]
	}
	return out
}

// aggEnv substitutes aggregate results and group keys into output
// expressions. Which sub-expression stands for which aggregate or group key
// is resolved once per statement, by node identity; each group then only
// refreshes the slot values.
type aggEnv struct {
	slots map[sqlparser.Expr]int // expression node → index into vals
	vals  []types.Value          // current group: aggregate finals, then keys
}

func newAggEnv(p *plan.PhysicalPlan) *aggEnv {
	byText := make(map[string]int, len(p.Aggs)+len(p.GroupBy))
	for i, spec := range p.Aggs {
		byText[spec.Key] = i
	}
	for i, g := range p.GroupBy {
		byText[g.String()] = len(p.Aggs) + i
	}
	env := &aggEnv{slots: make(map[sqlparser.Expr]int), vals: make([]types.Value, len(p.Aggs)+len(p.GroupBy))}
	for _, oi := range p.A.Outputs {
		env.resolve(oi.Expr, byText)
	}
	if p.A.Having != nil {
		env.resolve(p.A.Having, byText)
	}
	return env
}

// resolve records the slot of every node the evaluator can reach that
// renders as an aggregate call or a group key; it stops at such a node, as
// Eval does.
func (e *aggEnv) resolve(expr sqlparser.Expr, byText map[string]int) {
	if s, ok := byText[expr.String()]; ok {
		e.slots[expr] = s
		return
	}
	switch x := expr.(type) {
	case *sqlparser.NegExpr:
		e.resolve(x.X, byText)
	case *sqlparser.NotExpr:
		e.resolve(x.X, byText)
	case *sqlparser.IsNullExpr:
		e.resolve(x.X, byText)
	case *sqlparser.BinaryExpr:
		e.resolve(x.L, byText)
		e.resolve(x.R, byText)
	}
}

// bind loads one group's aggregate finals and keys into the slots.
func (e *aggEnv) bind(p *plan.PhysicalPlan, grp *Group) error {
	for i, spec := range p.Aggs {
		v, err := grp.Cells[i].Final(spec.Func)
		if err != nil {
			return err
		}
		e.vals[i] = v
	}
	copy(e.vals[len(p.Aggs):], grp.Keys)
	return nil
}

// Col implements Env: bare column references are valid only when they are
// grouping keys, which the slots already cover.
func (e *aggEnv) Col(table, col string) (types.Value, error) {
	return types.Value{}, fmt.Errorf("exec: column %s.%s referenced outside GROUP BY", table, col)
}

// Repeated implements Env.
func (e *aggEnv) Repeated(table, col string) ([]types.Value, error) {
	return nil, fmt.Errorf("exec: repeated column %s.%s in aggregate context", table, col)
}

// Sub implements Env.
func (e *aggEnv) Sub(expr sqlparser.Expr) (types.Value, bool) {
	if s, ok := e.slots[expr]; ok {
		return e.vals[s], true
	}
	return types.Value{}, false
}
