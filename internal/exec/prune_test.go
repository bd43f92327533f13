package exec

import (
	"math"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// pruneColumn builds an int column (v==nullMark rows become NULL) and its
// computed stats, so every table entry is checked against the real stats a
// block footer would carry (bloom included).
func pruneColumn(vals []int64, nulls []int) (*colstore.Column, colstore.Stats) {
	c := &colstore.Column{Type: types.Int64, Ints: append([]int64(nil), vals...)}
	if len(nulls) > 0 {
		c.Nulls = bitmap.New(len(vals))
		for _, i := range nulls {
			c.Nulls.Set(i)
			c.Ints[i] = 0
		}
	}
	return c, c.ComputeStats()
}

// anyRowMatches is the ground truth pruning must never contradict.
func anyRowMatches(a plan.Atom, c *colstore.Column) bool {
	for r := 0; r < c.Len(); r++ {
		if plan.EvalAtom(a, c.Value(r)) {
			return true
		}
	}
	return false
}

// TestAtomImpossibleBoundaries drives every operator across the boundary
// probes (below min, ==min, interior, ==max, above max, NULL literal,
// incomparable literal) over plain, mixed-NULL, constant and all-NULL
// chunks. Each case asserts both the expected pruning decision and — the
// safety property — that a pruned atom really matches no row.
func TestAtomImpossibleBoundaries(t *testing.T) {
	plain, plainStats := pruneColumn([]int64{2, 4, 7}, nil)               // min 2, max 7
	mixed, mixedStats := pruneColumn([]int64{2, 0, 4, 7, 0}, []int{1, 4}) // same range + NULLs
	constant, constantStats := pruneColumn([]int64{5, 0, 5}, []int{1})    // min==max==5 + NULL
	allNull, allNullStats := pruneColumn([]int64{0, 0}, []int{0, 1})      // no non-NULL value
	chunks := []struct {
		name  string
		col   *colstore.Column
		stats colstore.Stats
	}{
		{"plain", plain, plainStats},
		{"mixed-null", mixed, mixedStats},
		{"constant", constant, constantStats},
		{"all-null", allNull, allNullStats},
	}

	ops := []struct {
		op   sqlparser.BinaryOp
		name string
		// want[probe] is the expected pruning decision on the plain and
		// mixed-null chunks (range 2..7), probes below/min/interior/max/above.
		want [5]bool
	}{
		{sqlparser.OpEq, "=", [5]bool{true, false, false, false, true}},
		{sqlparser.OpNe, "!=", [5]bool{false, false, false, false, false}},
		{sqlparser.OpLt, "<", [5]bool{true, true, false, false, false}},
		{sqlparser.OpLe, "<=", [5]bool{true, false, false, false, false}},
		{sqlparser.OpGt, ">", [5]bool{false, false, false, true, true}},
		{sqlparser.OpGe, ">=", [5]bool{false, false, false, false, true}},
	}
	probes := []int64{1, 2, 4, 7, 9} // below, ==min, interior, ==max, above

	for _, ch := range chunks {
		for _, o := range ops {
			for pi, probe := range probes {
				a := plan.Atom{Table: "t", Col: "c", Op: o.op, Val: types.NewInt(probe)}
				got := impossible(a, ch.stats)
				if got && anyRowMatches(a, ch.col) {
					t.Fatalf("%s: pruned c %s %d but a row matches", ch.name, o.name, probe)
				}
				switch ch.name {
				case "plain", "mixed-null":
					// NULL rows must not change range-pruning decisions:
					// they satisfy no comparison.
					if got != o.want[pi] {
						t.Errorf("%s: c %s %d pruned=%v, want %v", ch.name, o.name, probe, got, o.want[pi])
					}
				case "all-null":
					if !got {
						t.Errorf("all-null: c %s %d not pruned", o.name, probe)
					}
				}
			}
			// NULL literal matches nothing for any operator.
			a := plan.Atom{Table: "t", Col: "c", Op: o.op, Val: types.NullValue()}
			if !impossible(a, ch.stats) {
				t.Errorf("%s: c %s NULL not pruned", ch.name, o.name)
			}
		}
	}

	// != prunes exactly the constant chunk at the constant value.
	ne := func(v int64) plan.Atom {
		return plan.Atom{Table: "t", Col: "c", Op: sqlparser.OpNe, Val: types.NewInt(v)}
	}
	if !impossible(ne(5), constantStats) {
		t.Error("constant chunk: c != 5 should be pruned (min==max==5, NULLs match nothing)")
	}
	if impossible(ne(6), constantStats) {
		t.Error("constant chunk: c != 6 must not be pruned")
	}

	// Negated atoms: never range-pruned on chunks with values (the stats
	// cannot see what the negation misses), but an all-NULL chunk prunes
	// even negations — EvalAtom rejects NULL before the negation applies.
	notContains := plan.Atom{Table: "t", Col: "c", Op: sqlparser.OpContains, Negated: true, Val: types.NewString("x")}
	if impossible(notContains, plainStats) {
		t.Error("NOT CONTAINS pruned on a chunk with values")
	}
	if !impossible(notContains, allNullStats) {
		t.Error("NOT CONTAINS not pruned on an all-NULL chunk")
	}

	// Incomparable literal: stats prove nothing, no pruning.
	if impossible(plan.Atom{Table: "t", Col: "c", Op: sqlparser.OpLt, Val: types.NewString("z")}, plainStats) {
		t.Error("incomparable literal pruned")
	}

	// Bloom: equality on a value inside the range but absent from the chunk.
	if !impossible(plan.Atom{Table: "t", Col: "c", Op: sqlparser.OpEq, Val: types.NewInt(3)}, plainStats) {
		t.Error("bloom should prune c = 3 (in range 2..7 but absent)")
	}
}

// TestAtomImpossibleSpecialValues: over every two-row block of NaN, ±Inf, -0,
// 0 and numbers around ±2^53 (alone and beside a NULL), no atom over
// specialLiterals, in either polarity, is pruned while a row satisfies it.
// A block {NaN, 7} once recorded min = max = NaN and pruned x <> 5.
func TestAtomImpossibleSpecialValues(t *testing.T) {
	floats := []float64{math.NaN(), math.Inf(-1), -1.5, math.Copysign(0, -1), 0, 0.5, 2, 7, 1 << 53, 1<<53 + 2, math.Inf(1)}
	ints := []int64{math.MinInt64, -1<<53 - 1, -1 << 53, 0, 2, 1 << 53, 1<<53 + 1, 1<<53 + 2, math.MaxInt64}
	var blocks []*colstore.Column
	for _, x := range floats {
		for _, y := range floats {
			blocks = append(blocks, &colstore.Column{Type: types.Float64, Floats: []float64{x, y}})
		}
	}
	for _, x := range ints {
		for _, y := range ints {
			blocks = append(blocks, &colstore.Column{Type: types.Int64, Ints: []int64{x, y}})
		}
		withNull := &colstore.Column{Type: types.Int64, Ints: []int64{x, 0}, Nulls: bitmap.New(2)}
		withNull.Nulls.Set(1)
		blocks = append(blocks, withNull)
	}
	for _, x := range floats {
		withNull := &colstore.Column{Type: types.Float64, Floats: []float64{0, x}, Nulls: bitmap.New(2)}
		withNull.Nulls.Set(0)
		blocks = append(blocks, withNull)
	}
	for _, c := range blocks {
		st := c.ComputeStats()
		for _, op := range kernelOps {
			for _, lit := range specialLiterals {
				for _, neg := range []bool{false, true} {
					a := plan.Atom{Table: "t", Col: "c", Op: op, Val: lit, Negated: neg}
					if impossible(a, st) && anyRowMatches(a, c) {
						t.Fatalf("block [%v %v] (min %v, max %v): pruned %v but a row matches", c.Value(0), c.Value(1), st.Min, st.Max, a)
					}
				}
			}
		}
	}
}

// impossible binds the atom as a task would and asks its footer verdict.
func impossible(a plan.Atom, st colstore.Stats) bool {
	t := &Scanner{plan: &plan.PhysicalPlan{FactCols: []string{a.Col}}}
	sa := &t.bindClause(plan.Clause{Atoms: []plan.Atom{a}}).atoms[0]
	sa.verdict(&st, true)
	return sa.never
}

// TestClauseImpossible: a clause is pruned only when every OR-leaf is
// impossible and nothing opaque hides in it.
func TestClauseImpossible(t *testing.T) {
	_, stats := pruneColumn([]int64{2, 4, 7}, nil)
	s := &Scanner{plan: &plan.PhysicalPlan{FactCols: []string{"c"}}, ords: []int{0},
		meta: &colstore.FileMeta{Schema: types.MustSchema(types.Field{Name: "c", Type: types.Int64})}}
	bm := &colstore.BlockMeta{Stats: colstore.BlockStats{NumRows: 3, Columns: []colstore.Stats{stats}}}

	bound := func(cl plan.Clause) *scanClause {
		b := s.bindClause(cl)
		return &b
	}
	below := plan.Atom{Table: "t", Col: "c", Op: sqlparser.OpLt, Val: types.NewInt(2)}
	inside := plan.Atom{Table: "t", Col: "c", Op: sqlparser.OpEq, Val: types.NewInt(4)}

	if !s.footerNever(bound(plan.Clause{Atoms: []plan.Atom{below}}), bm) {
		t.Error("clause with a single impossible atom not pruned")
	}
	if s.footerNever(bound(plan.Clause{Atoms: []plan.Atom{below, inside}}), bm) {
		t.Error("OR with a satisfiable leaf was pruned")
	}
	if s.footerNever(bound(plan.Clause{}), bm) {
		t.Error("empty clause pruned")
	}
	if s.footerNever(bound(plan.Clause{Atoms: []plan.Atom{below}, Opaque: []sqlparser.Expr{&sqlparser.Literal{}}}), bm) {
		t.Error("clause with an opaque leaf pruned")
	}
	// Unknown column: stats unavailable, no pruning.
	unknown := plan.Atom{Table: "t", Col: "zz", Op: sqlparser.OpLt, Val: types.NewInt(2)}
	if s.footerNever(bound(plan.Clause{Atoms: []plan.Atom{unknown}}), bm) {
		t.Error("clause over unknown column pruned")
	}
}

// FuzzAtomVerdict checks the footer's verdicts against the scan's row path:
// over a flat or repeated chunk drawn from NULL, NaN, ±0, ±Inf and plain
// values (a repeated one with empty records), an atom the footer calls never
// true matches no record, and one it calls always true matches every record.
// data[0] picks the column type and shape, data[1] the operator and
// polarity, data[2] the literal. In a flat chunk each later byte is a
// record; in a repeated one a byte with the high bit set ends a record, and
// any other byte is an element of it.
func FuzzAtomVerdict(f *testing.F) {
	f.Add([]byte{0, 4, 1, 1, 2, 3})
	f.Add([]byte{1, 1, 7, 0, 1, 2, 0})
	f.Add([]byte{4, 5, 2, 1, 0x80, 0x80, 3, 0x80})
	f.Add([]byte{6, 0x86, 20, 1, 2, 0x80})
	f.Add([]byte{5, 0, 0, 7, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		palettes := [][]types.Value{
			{types.NewInt(-1), types.NewInt(0), types.NewInt(2), types.NewInt(5), types.NewInt(1 << 53), types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64), types.NullValue()},
			{types.NewFloat(math.NaN()), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(0), types.NewFloat(0.5), types.NewFloat(2), types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)), types.NullValue()},
			{types.NewString(""), types.NewString("a"), types.NewString("ab"), types.NewString("b"), types.NewString("\x00"), types.NullValue()},
		}
		palette := palettes[int(data[0]&3)%len(palettes)]
		repeated := data[0]&4 != 0
		ops := append(kernelOps[:len(kernelOps):len(kernelOps)], sqlparser.OpContains)
		a := plan.Atom{Table: "t", Col: "c", Op: ops[int(data[1]&0x7f)%len(ops)], Negated: data[1]&0x80 != 0,
			Val: specialLiterals[int(data[2])%len(specialLiterals)]}

		c := colstore.NewColumn(palette[0].T)
		if repeated {
			c.Offsets = []int32{0}
		}
		for _, b := range data[3:] {
			if repeated && b&0x80 != 0 {
				c.Offsets = append(c.Offsets, int32(c.Len()))
				continue
			}
			if err := c.Append(palette[int(b&0x7f)%len(palette)]); err != nil {
				t.Fatal(err)
			}
		}
		n := c.Len()
		if repeated {
			if int(c.Offsets[len(c.Offsets)-1]) != c.Len() {
				c.Offsets = append(c.Offsets, int32(c.Len())) // the last record ends with the chunk
			}
			n = len(c.Offsets) - 1
		}
		st := c.ComputeStats()
		s := &Scanner{plan: &plan.PhysicalPlan{FactCols: []string{"c"}}}
		sa := &s.bindClause(plan.Clause{Atoms: []plan.Atom{a}}).atoms[0]
		sa.verdict(&st, !repeated)
		got := evalAtomRows(a, c, n).Count()
		if sa.never && got > 0 {
			t.Fatalf("%v over %d records (repeated %v, min %v, max %v, %d NULL): never true, but %d match", a, n, repeated, st.Min, st.Max, st.NullCount, got)
		}
		if sa.always && got < n {
			t.Fatalf("%v over %d records (repeated %v, min %v, max %v, %d NULL): always true, but %d match", a, n, repeated, st.Min, st.Max, st.NullCount, got)
		}
	})
}
