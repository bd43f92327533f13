// Package exec implements Feisu's vectorized execution operators: the leaf
// server's partition scan (block pruning, SmartIndex-assisted filtering,
// broadcast hash join, partial aggregation, WITHIN-record aggregation), the
// stem server's partial-result merging, and the master's finalization
// (output expressions over aggregates, HAVING, ORDER BY, LIMIT) — the
// bottom-up summarization of paper Fig. 3.
package exec

import (
	"fmt"
	"strings"

	"repro/internal/sqlparser"
	"repro/internal/types"
)

// Env supplies column values to the expression evaluator.
type Env interface {
	// Col returns the value of a bound column; repeated columns yield
	// their first element or NULL in scalar position.
	Col(table, col string) (types.Value, error)
	// Repeated returns all per-record elements of a repeated column.
	Repeated(table, col string) ([]types.Value, error)
	// Sub returns a substitution for the whole expression (the master
	// substitutes aggregate results and group keys); ok=false descends.
	Sub(e sqlparser.Expr) (types.Value, bool)
}

// Eval evaluates a bound expression. Comparison and logic follow SQL
// three-valued semantics with NULL collapsing to "unknown"; the filter
// boundary treats unknown as false.
func Eval(e sqlparser.Expr, env Env) (types.Value, error) {
	if v, ok := env.Sub(e); ok {
		return v, nil
	}
	switch x := e.(type) {
	case *sqlparser.Literal:
		return x.Value, nil
	case *sqlparser.ColumnRef:
		return env.Col(x.Table, x.Column)
	case *sqlparser.NegExpr:
		v, err := Eval(x.X, env)
		if err != nil || v.IsNull() {
			return v, err
		}
		switch v.T {
		case types.Int64:
			return types.NewInt(-v.I), nil
		case types.Float64:
			return types.NewFloat(-v.F), nil
		default:
			return types.Value{}, fmt.Errorf("exec: negation of %s", v.T)
		}
	case *sqlparser.NotExpr:
		v, err := Eval(x.X, env)
		if err != nil || v.IsNull() {
			return v, err
		}
		if v.T != types.Bool {
			return types.Value{}, fmt.Errorf("exec: NOT over %s", v.T)
		}
		return types.NewBool(!v.B), nil
	case *sqlparser.IsNullExpr:
		v, err := Eval(x.X, env)
		if err != nil {
			return types.Value{}, err
		}
		// IS [NOT] NULL is total: never unknown, unlike comparisons.
		return types.NewBool(v.IsNull() != x.Not), nil
	case *sqlparser.BinaryExpr:
		return evalBinary(x, env)
	case *sqlparser.FuncCall:
		if x.Within != nil || x.WithinRecord {
			return evalWithin(x, env)
		}
		return types.Value{}, fmt.Errorf("exec: aggregate %s in row context", x.Name)
	default:
		return types.Value{}, fmt.Errorf("exec: cannot evaluate %T", e)
	}
}

func evalBinary(x *sqlparser.BinaryExpr, env Env) (types.Value, error) {
	switch x.Op {
	case sqlparser.OpAnd, sqlparser.OpOr:
		return evalLogic(x, env)
	}
	l, err := Eval(x.L, env)
	if err != nil {
		return types.Value{}, err
	}
	r, err := Eval(x.R, env)
	if err != nil {
		return types.Value{}, err
	}
	if l.IsNull() || r.IsNull() {
		return types.NullValue(), nil
	}
	switch x.Op {
	case sqlparser.OpContains:
		if l.T != types.String || r.T != types.String {
			return types.Value{}, fmt.Errorf("exec: CONTAINS over %s and %s", l.T, r.T)
		}
		return types.NewBool(strings.Contains(l.S, r.S)), nil
	case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
		cmp, err := types.Compare(l, r)
		if err != nil {
			return types.Value{}, err
		}
		return types.NewBool(x.Op.Holds(cmp)), nil
	case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv, sqlparser.OpMod:
		return evalArith(x.Op, l, r)
	default:
		return types.Value{}, fmt.Errorf("exec: unhandled operator %s", x.Op)
	}
}

// evalLogic implements three-valued AND/OR with short circuits.
func evalLogic(x *sqlparser.BinaryExpr, env Env) (types.Value, error) {
	l, err := Eval(x.L, env)
	if err != nil {
		return types.Value{}, err
	}
	if !l.IsNull() && l.T != types.Bool {
		return types.Value{}, fmt.Errorf("exec: %s over %s", x.Op, l.T)
	}
	// The decisive value — FALSE for AND, TRUE for OR — on either side
	// decides; otherwise a NULL makes the result unknown.
	decisive := x.Op == sqlparser.OpOr
	if !l.IsNull() && l.B == decisive {
		return types.NewBool(decisive), nil
	}
	r, err := Eval(x.R, env)
	if err != nil {
		return types.Value{}, err
	}
	if !r.IsNull() && r.T != types.Bool {
		return types.Value{}, fmt.Errorf("exec: %s over %s", x.Op, r.T)
	}
	if !r.IsNull() && r.B == decisive {
		return types.NewBool(decisive), nil
	}
	if l.IsNull() || r.IsNull() {
		return types.NullValue(), nil
	}
	return types.NewBool(!decisive), nil
}

func evalArith(op sqlparser.BinaryOp, l, r types.Value) (types.Value, error) {
	if !l.T.Numeric() || !r.T.Numeric() {
		return types.Value{}, fmt.Errorf("exec: arithmetic over %s and %s", l.T, r.T)
	}
	if op == sqlparser.OpDiv {
		rf := r.AsFloat()
		if rf == 0 {
			return types.NullValue(), nil // SQL-style: division by zero yields NULL
		}
		return types.NewFloat(l.AsFloat() / rf), nil
	}
	if op == sqlparser.OpMod {
		if l.T != types.Int64 || r.T != types.Int64 {
			return types.Value{}, fmt.Errorf("exec: %% needs integers")
		}
		if r.I == 0 {
			return types.NullValue(), nil
		}
		return types.NewInt(l.I % r.I), nil
	}
	if l.T == types.Float64 || r.T == types.Float64 {
		lf, rf := l.AsFloat(), r.AsFloat()
		switch op {
		case sqlparser.OpAdd:
			return types.NewFloat(lf + rf), nil
		case sqlparser.OpSub:
			return types.NewFloat(lf - rf), nil
		default:
			return types.NewFloat(lf * rf), nil
		}
	}
	switch op {
	case sqlparser.OpAdd:
		return types.NewInt(l.I + r.I), nil
	case sqlparser.OpSub:
		return types.NewInt(l.I - r.I), nil
	default:
		return types.NewInt(l.I * r.I), nil
	}
}

// evalWithin computes a per-record aggregate over a repeated field (paper
// §III-A: "aggr_func(expr3) WITHIN expr4"). Feisu's flattening keeps one
// repetition level, so WITHIN <path> and WITHIN RECORD share record scope.
func evalWithin(x *sqlparser.FuncCall, env Env) (types.Value, error) {
	col, ok := x.Args[0].(*sqlparser.ColumnRef)
	if !ok {
		return types.Value{}, fmt.Errorf("exec: WITHIN aggregate needs a column argument")
	}
	vals, err := env.Repeated(col.Table, col.Column)
	if err != nil {
		return types.Value{}, err
	}
	var cell Cell
	for _, v := range vals {
		cell.Update(v, false)
	}
	return cell.Final(x.Name)
}

// EvalBool evaluates a boolean expression at the filter boundary: NULL and
// unknown collapse to false.
func EvalBool(e sqlparser.Expr, env Env) (bool, error) {
	v, err := Eval(e, env)
	if err != nil {
		return false, err
	}
	return v.T == types.Bool && v.B, nil
}
