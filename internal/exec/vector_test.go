package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

var kernelOps = []sqlparser.BinaryOp{
	sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt,
	sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe,
}

// rowWiseAtom is the reference the kernels must match bit for bit.
func rowWiseAtom(a plan.Atom, col *colstore.Column, n int) *bitmap.Bitmap {
	out := bitmap.New(n)
	for r := 0; r < n; r++ {
		if plan.EvalAtom(a, col.Value(r)) {
			out.Set(r)
		}
	}
	return out
}

// withNulls marks every third row NULL (zeroing the stored value, like the
// writer does) and returns the column.
func withNulls(col *colstore.Column, n int) *colstore.Column {
	col.Nulls = bitmap.New(n)
	for i := 0; i < n; i += 3 {
		col.Nulls.Set(i)
		switch col.Type {
		case types.Int64:
			col.Ints[i] = 0
		case types.Float64:
			col.Floats[i] = 0
		case types.String:
			col.Strs[i] = ""
		}
	}
	return col
}

func intColumn(rng *rand.Rand, n int, base int64) *colstore.Column {
	c := &colstore.Column{Type: types.Int64, Ints: make([]int64, n)}
	for i := range c.Ints {
		c.Ints[i] = base + rng.Int63n(7) - 3
	}
	if n > 1 {
		c.Ints[0] = math.MaxInt64
		c.Ints[1] = math.MinInt64
	}
	return c
}

func floatColumn(rng *rand.Rand, n int, base float64) *colstore.Column {
	c := &colstore.Column{Type: types.Float64, Floats: make([]float64, n)}
	for i := range c.Floats {
		c.Floats[i] = base + float64(rng.Intn(5)) - 1.5
	}
	if n > 4 {
		c.Floats[1] = math.NaN()
		c.Floats[2] = math.Inf(1)
		c.Floats[3] = math.Inf(-1)
		c.Floats[4] = math.Copysign(0, -1)
	}
	return c
}

func stringColumn(rng *rand.Rand, n int) *colstore.Column {
	words := []string{"", "a", "ab", "b", "ba", "\x00", "zz"}
	c := &colstore.Column{Type: types.String, Strs: make([]string, n)}
	for i := range c.Strs {
		c.Strs[i] = words[rng.Intn(len(words))]
	}
	return c
}

// specialLiterals are the awkward literals: NaN, ±Inf, -0, BIGINT/DOUBLE
// pairs around ±2^53 and the ends of int64, and incomparable types.
var specialLiterals = []types.Value{
	types.NewInt(0), types.NewInt(2), types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64),
	types.NewFloat(-1.5), types.NewFloat(0.5), types.NewFloat(2), types.NewFloat(math.NaN()),
	types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)), types.NewFloat(math.Copysign(0, -1)),
	types.NewInt(1 << 53), types.NewInt(1<<53 + 1), types.NewFloat(1 << 53), types.NewFloat(1<<53 + 2),
	types.NewInt(-1<<53 - 1), types.NewFloat(-1 << 53), types.NewFloat(1 << 63), types.NewFloat(-1 << 63),
	types.NewString("ab"), types.NewString("\x00"), types.NewString(""),
	types.NewBool(true), types.NullValue(),
}

// TestKernelMatchesEvalAtom cross-checks every vectorizable operator over
// every column type (with and without NULLs, at word-boundary lengths, and
// around ±2^53 where a DOUBLE stops holding every BIGINT) against the
// row-at-a-time EvalAtom path over specialLiterals. The kernel must run exactly when the column's type
// holds the literal exactly; otherwise the row path answers.
func TestKernelMatchesEvalAtom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		cols := []*colstore.Column{
			intColumn(rng, n, 0), intColumn(rng, n, 1<<53), intColumn(rng, n, -1<<53),
			floatColumn(rng, n, 0), floatColumn(rng, n, 1<<53), stringColumn(rng, n),
		}
		if n > 0 {
			cols = append(cols,
				withNulls(intColumn(rng, n, 0), n),
				withNulls(floatColumn(rng, n, 0), n),
				withNulls(stringColumn(rng, n), n),
			)
		}
		for ci, col := range cols {
			for _, op := range kernelOps {
				for _, lit := range specialLiterals {
					a := plan.Atom{Table: "t", Col: "c", Op: op, Val: lit}
					_, exact := lit.As(col.Type)
					if _, ok := evalAtomKernel(a, col, n); ok != exact {
						t.Fatalf("n=%d col=%d op=%v lit=%v: kernel ran=%v, literal exact in %s=%v", n, ci, op, lit, ok, col.Type, exact)
					}
					got, want := evalAtomOverColumn(a, col, n), rowWiseAtom(a, col, n)
					if !got.Equal(want) {
						t.Fatalf("n=%d col=%d op=%v lit=%v: column path %v != row-wise %v",
							n, ci, op, lit, got.Selected(), want.Selected())
					}
				}
			}
		}
	}
}

// TestKernelFallbacks verifies the kernel refuses exactly the shapes that
// need the row-wise path: repeated columns, CONTAINS, negated atoms, bool
// columns, and length mismatches.
func TestKernelFallbacks(t *testing.T) {
	flat := &colstore.Column{Type: types.Int64, Ints: []int64{1, 2, 3}}
	repeated := &colstore.Column{Type: types.Int64, Ints: []int64{1, 2, 3}, Offsets: []int32{0, 2, 3}}
	boolCol := &colstore.Column{Type: types.Bool, Bools: []bool{true, false, true}}
	eq := plan.Atom{Op: sqlparser.OpEq, Val: types.NewInt(2)}

	cases := []struct {
		name string
		a    plan.Atom
		col  *colstore.Column
		n    int
	}{
		{"repeated", eq, repeated, 2},
		{"contains", plan.Atom{Op: sqlparser.OpContains, Val: types.NewString("x")}, flat, 3},
		{"negated", plan.Atom{Op: sqlparser.OpContains, Negated: true, Val: types.NewString("x")}, flat, 3},
		{"bool", eq, boolCol, 3},
		{"length-mismatch", eq, flat, 4},
	}
	for _, tc := range cases {
		if _, ok := evalAtomKernel(tc.a, tc.col, tc.n); ok {
			t.Errorf("%s: kernel accepted a shape it cannot evaluate", tc.name)
		}
	}
	// The fallback must still produce the right answer end to end.
	out := evalAtomOverColumn(plan.Atom{Op: sqlparser.OpEq, Val: types.NewInt(2)}, repeated, 2)
	if got := fmt.Sprint(out.Selected()); got != "[0]" {
		t.Errorf("repeated-column fallback selected %s, want [0]", got)
	}
}

// TestFoldFlatMatchesUpdate: the typed fold leaves a cell exactly as
// Cell.Update row by row does — sums in row order, a NaN as the minimum
// wherever it comes, negative zero — and declines whatever it cannot do the same
// way (NULLs, a repeated column, a cell that already holds a value, so that
// an int sum promoted mid-way goes through Update).
func TestFoldFlatMatchesUpdate(t *testing.T) {
	sel := bitmap.New(6)
	for _, r := range []int{0, 2, 3, 5} {
		sel.Set(r)
	}
	byUpdate := func(cell Cell, c *colstore.Column) Cell {
		sel.ForEachSet(func(r int) { cell.Update(c.Value(r), false) })
		return cell
	}
	cols := map[string]*colstore.Column{
		"ints":      {Type: types.Int64, Ints: []int64{5, 99, -3, math.MaxInt64, 99, 7}},
		"floats":    {Type: types.Float64, Floats: []float64{0.1, 99, 0.2, -0.3, 99, 1e300}},
		"nan first": {Type: types.Float64, Floats: []float64{math.NaN(), 99, 1, -1, 99, 2}},
		"nan later": {Type: types.Float64, Floats: []float64{1, 99, math.NaN(), -1, 99, 2}},
		"neg zero":  {Type: types.Float64, Floats: []float64{math.Copysign(0, -1), 99, 0, 0, 99, 0}},
	}
	for name, c := range cols {
		var got Cell
		if !foldFlat(&got, c, sel) {
			t.Fatalf("%s: not folded", name)
		}
		want := byUpdate(Cell{}, c)
		// NaN != NaN: compare the bits.
		if got.Count != want.Count || got.SumI != want.SumI || got.Float != want.Float ||
			math.Float64bits(got.SumF) != math.Float64bits(want.SumF) ||
			math.Float64bits(got.Min.F) != math.Float64bits(want.Min.F) || got.Min.I != want.Min.I || got.Min.T != want.Min.T ||
			math.Float64bits(got.Max.F) != math.Float64bits(want.Max.F) || got.Max.I != want.Max.I || got.Max.T != want.Max.T {
			t.Errorf("%s: folded %+v, updated %+v", name, got, want)
		}
	}
	nulls := bitmap.New(6)
	nulls.Set(2)
	var started Cell
	started.Update(types.NewInt(4), false)
	for name, tc := range map[string]struct {
		cell Cell
		col  *colstore.Column
	}{
		"nulls":          {Cell{}, &colstore.Column{Type: types.Int64, Ints: make([]int64, 6), Nulls: nulls}},
		"repeated":       {Cell{}, &colstore.Column{Type: types.Int64, Ints: make([]int64, 6), Offsets: []int32{0, 1, 2, 3, 4, 5, 6}}},
		"strings":        {Cell{}, &colstore.Column{Type: types.String, Strs: make([]string, 6)}},
		"non-empty cell": {started, cols["floats"]},
	} {
		cell := tc.cell
		if foldFlat(&cell, tc.col, sel) || cell != tc.cell {
			t.Errorf("%s: folded from the typed slice (cell %+v)", name, cell)
		}
	}
	if got := byUpdate(started, cols["floats"]); !got.Float || got.Count != 5 {
		t.Errorf("int sum not promoted mid-way: %+v", got)
	}
}
