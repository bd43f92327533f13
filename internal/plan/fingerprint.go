package plan

import (
	"strconv"
	"strings"

	"repro/internal/sqlparser"
	"repro/internal/types"
)

// Query fingerprint normalization. The canonical Stmt.String() rendering
// embeds literal values, so `WHERE b > 10` and `WHERE b > 20` would never
// share an identity — useless for slowlog shape aggregation and for the
// master's semantic result cache. Normalize lifts every literal out of the
// rendering, replacing it with a typed placeholder (`?:BIGINT`), and returns
// the bound literal vector alongside. The pair (Fingerprint, LiteralKey)
// is exactly as precise as the old literal-embedding fingerprint; the
// Fingerprint alone groups all literal variants of one query shape.

// LitSlot classifies one bound literal of a normalized fingerprint for
// predicate-subsumption reuse.
type LitSlot struct {
	// Flexible marks a literal bound as `column OP literal` (either operand
	// order) in a top-level AND-conjunct of WHERE. Flexible slots may differ
	// between a cached entry and a new query as long as the new predicate
	// implies the cached one; all other (rigid) slots must match exactly.
	Flexible bool
	// Op is the comparison, normalized to the column-on-left form.
	Op sqlparser.BinaryOp
}

// Normalize renders the statement exactly like Stmt.String() but with every
// literal replaced by a typed placeholder. It returns the normalized shape,
// the literal vector in placeholder order, and the per-literal reuse slots.
func Normalize(s *sqlparser.SelectStmt) (string, []types.Value, []LitSlot) {
	n := &normalizer{}
	n.stmt(s)
	return n.sb.String(), n.lits, n.slots
}

// LiteralKey is a literal vector's identity: its values' types.AppendValue
// bytes, concatenated. The form is self-delimiting and carries each value's
// type, so BIGINT 3 and DOUBLE 3.0 stay distinct statements.
func LiteralKey(lits []types.Value) string {
	var b []byte
	for _, v := range lits {
		b = types.AppendValue(b, v)
	}
	return string(b)
}

type normalizer struct {
	sb    strings.Builder
	lits  []types.Value
	slots []LitSlot
}

// stmt mirrors SelectStmt.String clause for clause; only WHERE walks with
// flexibility on (subsumption reuses pushed-down scan predicates, nothing
// from projections, grouping, HAVING or ordering).
func (n *normalizer) stmt(s *sqlparser.SelectStmt) {
	n.sb.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			n.sb.WriteString(", ")
		}
		if it.Star {
			n.sb.WriteByte('*')
			continue
		}
		n.expr(it.Expr, false)
		if it.Alias != "" {
			n.sb.WriteString(" AS " + it.Alias)
		}
	}
	n.sb.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			n.sb.WriteString(", ")
		}
		n.sb.WriteString(t.Name)
		if t.Alias != "" {
			n.sb.WriteString(" AS " + t.Alias)
		}
	}
	for _, j := range s.Joins {
		n.sb.WriteString(" " + j.Type.String() + " " + j.Table.Name)
		if j.Table.Alias != "" {
			n.sb.WriteString(" AS " + j.Table.Alias)
		}
		if j.On != nil {
			n.sb.WriteString(" ON ")
			n.expr(j.On, false)
		}
	}
	if s.Where != nil {
		n.sb.WriteString(" WHERE ")
		n.expr(s.Where, true)
	}
	if len(s.GroupBy) > 0 {
		n.sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				n.sb.WriteString(", ")
			}
			n.expr(g, false)
		}
	}
	if s.Having != nil {
		n.sb.WriteString(" HAVING ")
		n.expr(s.Having, false)
	}
	if len(s.OrderBy) > 0 {
		n.sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				n.sb.WriteString(", ")
			}
			n.expr(o.Expr, false)
			if o.Desc {
				n.sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		// LIMIT stays literal in the shape: a different limit is a different
		// result, so limit variants must not share cache entries.
		n.sb.WriteString(" LIMIT ")
		n.sb.WriteString(strconv.FormatInt(s.Limit, 10))
	}
}

// expr mirrors each node's String(). flex is true only while the walk is
// inside the top-level AND spine of WHERE; it turns `column OP literal`
// comparisons there into flexible slots.
func (n *normalizer) expr(e sqlparser.Expr, flex bool) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		n.placeholder(x.Value, LitSlot{})
	case *sqlparser.ColumnRef:
		n.sb.WriteString(x.String())
	case *sqlparser.NotExpr:
		n.sb.WriteString("NOT ")
		n.expr(x.X, false)
	case *sqlparser.IsNullExpr:
		n.sb.WriteByte('(')
		n.expr(x.X, false)
		if x.Not {
			n.sb.WriteString(" IS NOT NULL)")
		} else {
			n.sb.WriteString(" IS NULL)")
		}
	case *sqlparser.NegExpr:
		n.sb.WriteByte('-')
		n.expr(x.X, false)
	case *sqlparser.FuncCall:
		n.sb.WriteString(x.Name)
		n.sb.WriteByte('(')
		if x.Star {
			n.sb.WriteByte('*')
		}
		for i, a := range x.Args {
			if i > 0 {
				n.sb.WriteString(", ")
			}
			n.expr(a, false)
		}
		n.sb.WriteByte(')')
		if x.WithinRecord {
			n.sb.WriteString(" WITHIN RECORD")
		} else if x.Within != nil {
			n.sb.WriteString(" WITHIN " + x.Within.String())
		}
	case *sqlparser.BinaryExpr:
		n.binary(x, flex)
	default:
		// Unknown node kinds have no literal children today; render as-is.
		n.sb.WriteString(e.String())
	}
}

func (n *normalizer) binary(b *sqlparser.BinaryExpr, flex bool) {
	n.sb.WriteByte('(')
	defer n.sb.WriteByte(')')

	if flex && b.Op == sqlparser.OpAnd {
		// AND keeps the conjunct spine flexible on both sides.
		n.expr(b.L, true)
		n.sb.WriteString(" " + b.Op.String() + " ")
		n.expr(b.R, true)
		return
	}
	if flex && b.Op.Comparison() {
		// The same shapes atomOf() accepts: col OP lit, or lit OP col with
		// the operator flipped (CONTAINS never flips).
		if col, okc := b.L.(*sqlparser.ColumnRef); okc && col.Column != "" {
			if lit, okl := b.R.(*sqlparser.Literal); okl {
				n.sb.WriteString(col.String())
				n.sb.WriteString(" " + b.Op.String() + " ")
				n.placeholder(lit.Value, LitSlot{Flexible: true, Op: b.Op})
				return
			}
		}
		if col, okc := b.R.(*sqlparser.ColumnRef); okc && col.Column != "" && b.Op != sqlparser.OpContains {
			if lit, okl := b.L.(*sqlparser.Literal); okl {
				n.placeholder(lit.Value, LitSlot{Flexible: true, Op: flip(b.Op)})
				n.sb.WriteString(" " + b.Op.String() + " ")
				n.sb.WriteString(col.String())
				return
			}
		}
	}
	n.expr(b.L, false)
	n.sb.WriteString(" " + b.Op.String() + " ")
	n.expr(b.R, false)
}

// placeholder emits `?:TYPE` (no literal rendering starts with '?', so
// placeholders cannot collide with a residual literal) and records the
// value and its reuse slot.
func (n *normalizer) placeholder(v types.Value, slot LitSlot) {
	n.sb.WriteString("?:")
	n.sb.WriteString(v.T.String())
	n.lits = append(n.lits, v)
	n.slots = append(n.slots, slot)
}

// ReuseAtom is one pushed-down predicate atom mapped to the visible output
// column that carries its value — the unit of subsumption re-filtering.
type ReuseAtom struct {
	Out  int // index into the final (visible) result row
	Atom Atom
}

// ReuseFilter is the full pushed-down predicate of a subsumption-eligible
// plan in CNF over visible output columns. A cached superset result is
// re-filtered row by row with the new query's ReuseFilter.
type ReuseFilter struct {
	Clauses [][]ReuseAtom
}

// Match evaluates the filter against one visible result row.
func (f *ReuseFilter) Match(row []types.Value) bool {
	for _, cl := range f.Clauses {
		ok := false
		for _, ra := range cl {
			if ra.Out < len(row) && EvalAtom(ra.Atom, row[ra.Out]) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// ReuseFilter builds the subsumption re-filter for the plan and reports
// whether the plan is eligible for subsumption reuse at all. Eligibility is
// a property of the normalized shape — every plan sharing a fingerprint has
// the same answer. The conditions guarantee a cached result row set is a
// superset of any subsumed query's rows AND that re-filtering the finalized
// rows reproduces exactly what cold execution would:
//
//   - plain select (no aggregation, no dimension joins, no post-join
//     clauses, no HAVING): finalized rows map 1:1 to scanned fact rows;
//   - no LIMIT: the cached row set was not truncated;
//   - every pushed-down clause fully indexable (atoms only) and every atom
//     column present verbatim as a visible output column, so the filter can
//     be evaluated over the cached rows.
func (p *PhysicalPlan) ReuseFilter() (*ReuseFilter, bool) {
	if p.Mode != ModeSelect || len(p.Dims) > 0 || len(p.Post) > 0 ||
		p.A.Having != nil || p.A.Limit >= 0 || p.Shuffle != nil {
		// Shuffle plans push their predicates into derived map sub-plans, so
		// the top-level Filter does not describe the produced row set.
		return nil, false
	}
	// Visible output index of each direct column reference.
	vis := make(map[ColRef]int)
	idx := 0
	for _, oi := range p.A.Outputs {
		if oi.Hidden {
			continue
		}
		if cr, ok := oi.Expr.(*sqlparser.ColumnRef); ok {
			key := ColRef{Table: cr.Table, Col: cr.Column}
			if _, dup := vis[key]; !dup {
				vis[key] = idx
			}
		}
		idx++
	}
	f := &ReuseFilter{}
	for _, cl := range p.Filter.Clauses {
		if !cl.Indexable() {
			return nil, false
		}
		ras := make([]ReuseAtom, 0, len(cl.Atoms))
		for _, a := range cl.Atoms {
			out, ok := vis[ColRef{Table: a.Table, Col: a.Col}]
			if !ok {
				return nil, false
			}
			ras = append(ras, ReuseAtom{Out: out, Atom: a})
		}
		f.Clauses = append(f.Clauses, ras)
	}
	return f, true
}
