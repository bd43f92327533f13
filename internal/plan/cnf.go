package plan

import (
	"strings"

	"repro/internal/sqlparser"
	"repro/internal/types"
)

// The paper's SmartIndex keys on predicates "converted to the conjunctive
// form" (§IV-A): WHERE becomes a conjunction of clauses, each clause a
// disjunction of leaf predicates. Leaves of the shape `column OP literal`
// become Atoms — the unit the index caches bitmaps for.

// Atom is one indexable leaf predicate over a single column.
type Atom struct {
	Table string
	Col   string
	Op    sqlparser.BinaryOp
	Val   types.Value
	// Negated is set only for operators without a complement (CONTAINS);
	// comparison negations are folded into Op by the NOT pushdown.
	Negated bool
}

// Key returns the canonical identity of the positive form of the atom,
// which is the SmartIndex cache key ("op/colname/colvalue" in the paper's
// index schema, Fig. 6).
func (a Atom) Key() string {
	var buf [64]byte
	return string(a.AppendKey(buf[:0]))
}

// AppendKey appends Key() to dst: a caller probing a map with it renders
// into a buffer of its own and allocates nothing.
func (a Atom) AppendKey(dst []byte) []byte {
	dst = append(append(dst, a.Col...), ' ')
	dst = append(append(dst, a.Op.String()...), ' ')
	return a.Val.AppendString(dst)
}

// String renders the atom including negation.
func (a Atom) String() string {
	if a.Negated {
		return "NOT(" + a.Key() + ")"
	}
	return a.Key()
}

// Clause is one disjunction: it holds indexable atoms plus opaque leaves
// that must be evaluated row-wise. The clause is satisfied when any leaf is.
type Clause struct {
	Atoms  []Atom
	Opaque []sqlparser.Expr
}

// Indexable reports whether every leaf of the clause is an atom, i.e. the
// whole clause can be answered from bitmaps.
func (c Clause) Indexable() bool { return len(c.Opaque) == 0 }

// CNF is a conjunction of clauses; all must hold.
type CNF struct {
	Clauses []Clause
}

// maxClauses bounds OR-distribution blowup; beyond it the offending subtree
// is kept as one opaque leaf.
const maxClauses = 64

// ToCNF normalizes a bound boolean expression: NOT is pushed to the leaves
// (flipping comparisons, De Morgan over AND/OR), then AND/OR are distributed
// into conjunctive normal form with a blowup cap.
func ToCNF(e sqlparser.Expr) CNF {
	if e == nil {
		return CNF{}
	}
	pushed := pushNot(e, false)
	clauses := distribute(pushed)
	out := CNF{Clauses: make([]Clause, 0, len(clauses))}
	for _, cl := range clauses {
		out.Clauses = append(out.Clauses, classify(cl))
	}
	return out
}

// pushNot returns the expression with negations pushed to the leaves.
func pushNot(e sqlparser.Expr, neg bool) sqlparser.Expr {
	switch x := e.(type) {
	case *sqlparser.NotExpr:
		return pushNot(x.X, !neg)
	case *sqlparser.IsNullExpr:
		if neg { // NOT (x IS NULL) == x IS NOT NULL
			return &sqlparser.IsNullExpr{X: x.X, Not: !x.Not}
		}
		return x
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case sqlparser.OpAnd:
			l, r := pushNot(x.L, neg), pushNot(x.R, neg)
			if neg { // De Morgan
				return &sqlparser.BinaryExpr{Op: sqlparser.OpOr, L: l, R: r}
			}
			return &sqlparser.BinaryExpr{Op: sqlparser.OpAnd, L: l, R: r}
		case sqlparser.OpOr:
			l, r := pushNot(x.L, neg), pushNot(x.R, neg)
			if neg {
				return &sqlparser.BinaryExpr{Op: sqlparser.OpAnd, L: l, R: r}
			}
			return &sqlparser.BinaryExpr{Op: sqlparser.OpOr, L: l, R: r}
		default:
			if neg {
				if flipped, ok := x.Op.Negate(); ok {
					return &sqlparser.BinaryExpr{Op: flipped, L: x.L, R: x.R}
				}
				return &sqlparser.NotExpr{X: x}
			}
			return x
		}
	default:
		if neg {
			return &sqlparser.NotExpr{X: e}
		}
		return e
	}
}

// distribute converts a NOT-pushed expression to a list of OR-clauses.
func distribute(e sqlparser.Expr) []sqlparser.Expr {
	if b, ok := e.(*sqlparser.BinaryExpr); ok {
		switch b.Op {
		case sqlparser.OpAnd:
			return append(distribute(b.L), distribute(b.R)...)
		case sqlparser.OpOr:
			ls, rs := distribute(b.L), distribute(b.R)
			if len(ls)*len(rs) > maxClauses {
				return []sqlparser.Expr{e}
			}
			out := make([]sqlparser.Expr, 0, len(ls)*len(rs))
			for _, l := range ls {
				for _, r := range rs {
					out = append(out, &sqlparser.BinaryExpr{Op: sqlparser.OpOr, L: l, R: r})
				}
			}
			return out
		}
	}
	return []sqlparser.Expr{e}
}

// classify splits one OR-clause into atoms and opaque leaves.
func classify(clause sqlparser.Expr) Clause {
	var c Clause
	var walk func(e sqlparser.Expr)
	walk = func(e sqlparser.Expr) {
		if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == sqlparser.OpOr {
			walk(b.L)
			walk(b.R)
			return
		}
		if a, ok := atomOf(e); ok {
			c.Atoms = append(c.Atoms, a)
			return
		}
		c.Opaque = append(c.Opaque, e)
	}
	walk(clause)
	return c
}

// atomOf extracts an Atom from a leaf of the form `col OP literal` (either
// side), or NOT(col CONTAINS literal).
func atomOf(e sqlparser.Expr) (Atom, bool) {
	if n, ok := e.(*sqlparser.NotExpr); ok {
		a, ok := atomOf(n.X)
		if !ok || a.Negated {
			return Atom{}, false
		}
		if _, invertible := a.Op.Negate(); invertible {
			// pushNot already handles these; be safe anyway.
			op, _ := a.Op.Negate()
			a.Op = op
			return a, true
		}
		a.Negated = true
		return a, true
	}
	b, ok := e.(*sqlparser.BinaryExpr)
	if !ok || !b.Op.Comparison() {
		return Atom{}, false
	}
	if col, okc := b.L.(*sqlparser.ColumnRef); okc {
		if lit, okl := b.R.(*sqlparser.Literal); okl && col.Column != "" {
			return Atom{Table: col.Table, Col: col.Column, Op: b.Op, Val: lit.Value}, true
		}
	}
	if col, okc := b.R.(*sqlparser.ColumnRef); okc {
		if lit, okl := b.L.(*sqlparser.Literal); okl && col.Column != "" && b.Op != sqlparser.OpContains {
			return Atom{Table: col.Table, Col: col.Column, Op: flip(b.Op), Val: lit.Value}, true
		}
	}
	return Atom{}, false
}

// flip mirrors a comparison when operands swap sides.
func flip(op sqlparser.BinaryOp) sqlparser.BinaryOp {
	switch op {
	case sqlparser.OpLt:
		return sqlparser.OpGt
	case sqlparser.OpLe:
		return sqlparser.OpGe
	case sqlparser.OpGt:
		return sqlparser.OpLt
	case sqlparser.OpGe:
		return sqlparser.OpLe
	default:
		return op // =, != are symmetric
	}
}

// EvalAtom evaluates the atom against one value. NULL input yields false
// (SQL three-valued logic collapses to false at the filter boundary).
func EvalAtom(a Atom, v types.Value) bool {
	if v.IsNull() || a.Val.IsNull() {
		return false
	}
	var res bool
	if a.Op == sqlparser.OpContains {
		if v.T != types.String || a.Val.T != types.String {
			return false
		}
		res = strings.Contains(v.S, a.Val.S)
	} else {
		cmp, err := types.Compare(v, a.Val)
		if err != nil || !a.Op.Comparison() {
			return false
		}
		res = a.Op.Holds(cmp)
	}
	if a.Negated {
		return !res
	}
	return res
}

// ColumnsOf collects the distinct (table, column) pairs referenced by the
// expression, in first-appearance order — the planner's column pruning input.
func ColumnsOf(e sqlparser.Expr, sink *[]ColRef) {
	switch x := e.(type) {
	case *sqlparser.ColumnRef:
		addCol(sink, ColRef{Table: x.Table, Col: x.Column})
	case *sqlparser.BinaryExpr:
		ColumnsOf(x.L, sink)
		ColumnsOf(x.R, sink)
	case *sqlparser.NotExpr:
		ColumnsOf(x.X, sink)
	case *sqlparser.NegExpr:
		ColumnsOf(x.X, sink)
	case *sqlparser.IsNullExpr:
		ColumnsOf(x.X, sink)
	case *sqlparser.FuncCall:
		for _, a := range x.Args {
			ColumnsOf(a, sink)
		}
		if x.Within != nil {
			ColumnsOf(x.Within, sink)
		}
	}
}

// ColRef names a bound column.
type ColRef struct {
	Table string
	Col   string
}

func addCol(sink *[]ColRef, c ColRef) {
	for _, e := range *sink {
		if e == c {
			return
		}
	}
	*sink = append(*sink, c)
}
