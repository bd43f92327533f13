package exec

import (
	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// Vectorized predicate kernels: simple comparison atoms (=, !=, <, <=, >, >=
// over INT/FLOAT/STRING columns) are evaluated for a whole column chunk in
// one tight typed loop that accumulates match bits in a register word,
// instead of boxing every row into a types.Value and walking the expression
// tree. The kernels are exact drop-in replacements for the row-at-a-time
// path: NULL rows never match, and the literal is one the column's type
// holds exactly (types.Value.As), against which Go's operators order the
// column's values as types.Compare does.

// evalAtomKernel evaluates the atom over a flat (non-repeated) column in a
// typed loop. ok=false means the caller must fall back to the row-wise path
// (repeated columns, CONTAINS, negated atoms, boolean columns, a literal the
// column's type does not hold exactly, or a length mismatch).
func evalAtomKernel(a plan.Atom, col *colstore.Column, n int) (*bitmap.Bitmap, bool) {
	if a.Negated || !a.Op.Comparison() || a.Op == sqlparser.OpContains || col.Offsets != nil || col.Len() != n {
		return nil, false
	}
	if col.Nulls != nil && col.Nulls.Len() != n {
		return nil, false
	}
	lit, ok := a.Val.As(col.Type)
	if !ok {
		return nil, false
	}
	out := bitmap.New(n)
	switch col.Type {
	case types.Int64:
		kernelCompare(col.Ints, lit.I, a.Op, out)
	case types.Float64:
		kernelCompare(col.Floats, lit.F, a.Op, out)
	case types.String:
		kernelCompare(col.Strs, lit.S, a.Op, out)
	default:
		return nil, false // booleans keep the row-wise path
	}
	if col.Nulls != nil {
		// Values at NULL positions are zero-filled and may have matched;
		// NULL satisfies no comparison.
		out.AndNot(col.Nulls)
	}
	return out, true
}

// kernelCompare runs one comparison over the whole value slice, flushing
// match bits a word at a time, with one Go comparison per row. Against a
// literal that is not NaN these are types.Compare's order on a float column
// too: a NaN row fails ==, >= and >, so it is != v, < v and <= v.
func kernelCompare[T int64 | float64 | string](vals []T, v T, op sqlparser.BinaryOp, out *bitmap.Bitmap) {
	var w uint64
	wi := 0
	flush := func(i int) {
		if i&63 == 63 {
			out.SetWord(wi, w)
			wi++
			w = 0
		}
	}
	switch op {
	case sqlparser.OpEq:
		for i, x := range vals {
			if x == v {
				w |= 1 << uint(i&63)
			}
			flush(i)
		}
	case sqlparser.OpNe:
		for i, x := range vals {
			if x != v {
				w |= 1 << uint(i&63)
			}
			flush(i)
		}
	case sqlparser.OpLt:
		for i, x := range vals {
			if !(x >= v) {
				w |= 1 << uint(i&63)
			}
			flush(i)
		}
	case sqlparser.OpLe:
		for i, x := range vals {
			if !(x > v) {
				w |= 1 << uint(i&63)
			}
			flush(i)
		}
	case sqlparser.OpGt:
		for i, x := range vals {
			if x > v {
				w |= 1 << uint(i&63)
			}
			flush(i)
		}
	case sqlparser.OpGe:
		for i, x := range vals {
			if x >= v {
				w |= 1 << uint(i&63)
			}
			flush(i)
		}
	}
	if len(vals)&63 != 0 {
		out.SetWord(wi, w)
	}
}
