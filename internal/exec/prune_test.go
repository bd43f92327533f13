package exec

import (
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

// impossible binds the atom as a task would and asks atomImpossible.
func impossible(a plan.Atom, st colstore.Stats) bool {
	t := &scanTask{plan: &plan.PhysicalPlan{FactCols: []string{a.Col}}}
	return atomImpossible(&t.bindClause(plan.Clause{Atoms: []plan.Atom{a}}).atoms[0], &st)
}

// TestClauseImpossible: a clause is pruned only when every OR-leaf is
// impossible and nothing opaque hides in it.
func TestClauseImpossible(t *testing.T) {
	_, stats := pruneColumn([]int64{2, 4, 7}, nil)
	s := &scanTask{plan: &plan.PhysicalPlan{FactCols: []string{"c"}}, ords: []int{0}}
	bm := &colstore.BlockMeta{Stats: colstore.BlockStats{NumRows: 3, Columns: []colstore.Stats{stats}}}

	bound := func(cl plan.Clause) *scanClause {
		b := s.bindClause(cl)
		return &b
	}
	below := plan.Atom{Table: "t", Col: "c", Op: sqlparser.OpLt, Val: types.NewInt(2)}
	inside := plan.Atom{Table: "t", Col: "c", Op: sqlparser.OpEq, Val: types.NewInt(4)}

	if !clauseImpossible(bound(plan.Clause{Atoms: []plan.Atom{below}}), s.ords, bm) {
		t.Error("clause with a single impossible atom not pruned")
	}
	if clauseImpossible(bound(plan.Clause{Atoms: []plan.Atom{below, inside}}), s.ords, bm) {
		t.Error("OR with a satisfiable leaf was pruned")
	}
	if clauseImpossible(bound(plan.Clause{}), s.ords, bm) {
		t.Error("empty clause pruned")
	}
	if clauseImpossible(bound(plan.Clause{Atoms: []plan.Atom{below}, Opaque: []sqlparser.Expr{&sqlparser.Literal{}}}), s.ords, bm) {
		t.Error("clause with an opaque leaf pruned")
	}
	// Unknown column: stats unavailable, no pruning.
	unknown := plan.Atom{Table: "t", Col: "zz", Op: sqlparser.OpLt, Val: types.NewInt(2)}
	if clauseImpossible(bound(plan.Clause{Atoms: []plan.Atom{unknown}}), s.ords, bm) {
		t.Error("clause over unknown column pruned")
	}
}
