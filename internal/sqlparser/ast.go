package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/types"
)

// Expr is any expression node. Implementations render a canonical SQL form
// via String; the SmartIndex uses these renderings as stable predicate keys.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators, in no particular order.
const (
	OpOr BinaryOp = iota
	OpAnd
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpContains
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
)

// String returns the canonical operator spelling.
func (op BinaryOp) String() string {
	switch op {
	case OpOr:
		return "OR"
	case OpAnd:
		return "AND"
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpContains:
		return "CONTAINS"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// Comparison reports whether the operator yields a boolean from two scalars.
func (op BinaryOp) Comparison() bool {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpContains:
		return true
	default:
		return false
	}
}

// Holds reports whether two scalars that compare as cmp (types.Compare)
// satisfy the ordering operator; false for any other operator.
func (op BinaryOp) Holds(cmp int) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	default:
		return false
	}
}

// Negate returns the complementary comparison (paper Fig. 7: rewriting
// C2 <= 5 as !(C2 > 5) lets a cached index serve the negation via bit-NOT).
// ok is false for non-invertible operators.
func (op BinaryOp) Negate() (BinaryOp, bool) {
	switch op {
	case OpEq:
		return OpNe, true
	case OpNe:
		return OpEq, true
	case OpLt:
		return OpGe, true
	case OpLe:
		return OpGt, true
	case OpGt:
		return OpLe, true
	case OpGe:
		return OpLt, true
	default:
		return op, false
	}
}

// ColumnRef names a column, optionally qualified ("t1.col" or the flattened
// JSON path "click.pos" — the analyzer disambiguates).
type ColumnRef struct {
	// Parts holds the dotted segments as written.
	Parts []string
	// Table and Column are filled by the analyzer after binding.
	Table  string
	Column string
}

func (*ColumnRef) exprNode() {}

// String renders the reference as written.
func (c *ColumnRef) String() string {
	if c.Column != "" {
		if c.Table != "" {
			return c.Table + "." + c.Column
		}
		return c.Column
	}
	return strings.Join(c.Parts, ".")
}

// Literal is a constant value.
type Literal struct{ Value types.Value }

func (*Literal) exprNode() {}

// String renders the literal; strings use SQL single quotes. Doubles
// render in plain decimal with a forced fraction point — the dialect has
// no exponent syntax, and an integral-looking rendering ("-0" for -0.0)
// would re-parse as BIGINT and break the canonical fixed point.
func (l *Literal) String() string {
	switch l.Value.T {
	case types.String:
		return "'" + strings.ReplaceAll(l.Value.S, "'", "''") + "'"
	case types.Float64:
		s := strconv.FormatFloat(l.Value.F, 'f', -1, 64)
		if !strings.ContainsRune(s, '.') {
			s += ".0"
		}
		return s
	}
	return l.Value.String()
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   BinaryOp
	L, R Expr
}

func (*BinaryExpr) exprNode() {}

// String renders with full parenthesization for canonical predicate keys.
func (b *BinaryExpr) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

// IsNullExpr tests an expression for SQL NULL (x IS NULL / x IS NOT NULL).
// Unlike comparisons it never yields unknown: the result is always TRUE or
// FALSE, which is what makes it usable for three-way TLP partitioning.
type IsNullExpr struct {
	X   Expr
	Not bool // true for IS NOT NULL
}

func (*IsNullExpr) exprNode() {}

// String renders with full parenthesization, like BinaryExpr.
func (i *IsNullExpr) String() string {
	if i.Not {
		return "(" + i.X.String() + " IS NOT NULL)"
	}
	return "(" + i.X.String() + " IS NULL)"
}

// NotExpr is logical negation (NOT x or !x).
type NotExpr struct{ X Expr }

func (*NotExpr) exprNode() {}

// String renders as NOT (...).
func (n *NotExpr) String() string { return "NOT " + n.X.String() }

// NegExpr is arithmetic negation.
type NegExpr struct{ X Expr }

func (*NegExpr) exprNode() {}

// String renders as -(...).
func (n *NegExpr) String() string { return "-" + n.X.String() }

// FuncCall is an aggregate or scalar function call. Star marks COUNT(*).
// Within carries the column of the WITHIN clause of paper §III-A
// ("aggr_func(expr3) WITHIN expr4"); WithinRecord marks WITHIN RECORD.
type FuncCall struct {
	Name         string // upper-cased
	Args         []Expr
	Star         bool
	Within       *ColumnRef
	WithinRecord bool
}

func (*FuncCall) exprNode() {}

// String renders the call canonically.
func (f *FuncCall) String() string {
	var sb strings.Builder
	sb.WriteString(f.Name)
	sb.WriteByte('(')
	if f.Star {
		sb.WriteByte('*')
	}
	for i, a := range f.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
	}
	sb.WriteByte(')')
	if f.WithinRecord {
		sb.WriteString(" WITHIN RECORD")
	} else if f.Within != nil {
		sb.WriteString(" WITHIN " + f.Within.String())
	}
	return sb.String()
}

// SelectItem is one output expression with its optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
	// Star marks a bare `SELECT *`.
	Star bool
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Binding returns the name the table is referred to by in expressions.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinType enumerates the paper's join forms.
type JoinType int

// Join types.
const (
	JoinInner JoinType = iota
	JoinLeftOuter
	JoinRightOuter
	JoinCross
)

// String returns the SQL join keyword.
func (j JoinType) String() string {
	switch j {
	case JoinInner:
		return "INNER JOIN"
	case JoinLeftOuter:
		return "LEFT OUTER JOIN"
	case JoinRightOuter:
		return "RIGHT OUTER JOIN"
	case JoinCross:
		return "CROSS JOIN"
	default:
		return fmt.Sprintf("join(%d)", int(j))
	}
}

// Join is one JOIN clause.
type Join struct {
	Type  JoinType
	Table TableRef
	On    Expr // nil for CROSS JOIN
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is the parsed query.
type SelectStmt struct {
	Items   []SelectItem
	From    []TableRef
	Joins   []Join
	Where   Expr
	GroupBy []Expr
	Having  Expr
	OrderBy []OrderItem
	Limit   int64 // -1 when absent

	// Explain marks an EXPLAIN-prefixed statement: plan only, no
	// execution. Analyze additionally executes the query with the span
	// tracer on and renders the trace (EXPLAIN ANALYZE). Both are
	// statement modifiers and do not participate in the canonical String
	// form, so an analyzed query shares its reuse fingerprint with the
	// plain query it wraps.
	Explain bool
	Analyze bool
}

// String renders the statement canonically (used in logs and result reuse
// fingerprints).
func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		if it.Star {
			sb.WriteByte('*')
			continue
		}
		sb.WriteString(it.Expr.String())
		if it.Alias != "" {
			sb.WriteString(" AS " + it.Alias)
		}
	}
	sb.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.Name)
		if t.Alias != "" {
			sb.WriteString(" AS " + t.Alias)
		}
	}
	for _, j := range s.Joins {
		sb.WriteString(" " + j.Type.String() + " " + j.Table.Name)
		if j.Table.Alias != "" {
			sb.WriteString(" AS " + j.Table.Alias)
		}
		if j.On != nil {
			sb.WriteString(" ON " + j.On.String())
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.String())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	return sb.String()
}
