package exec_test

import (
	"context"
	"testing"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// TestFooterDecidesAlwaysTrue: on a fresh index, an atom the block's footer
// proves true for every record reads no column and stores no entry, and a
// COUNT(*) over it is answered from the footer alone. A NULL in the chunk
// takes that proof away (the NULL record matches nothing), and so does a
// repeated column (its empty record matches nothing), whose atoms never
// meet the index either. One block of four records: a is 1-4; n is 1-3 and
// NULL; r is {1}, {2}, {3}, {}.
func TestFooterDecidesAlwaysTrue(t *testing.T) {
	schema := types.MustSchema(
		types.Field{Name: "a", Type: types.Int64},
		types.Field{Name: "n", Type: types.Int64},
		types.Field{Name: "r", Type: types.Int64, Repeated: true},
	)
	w := colstore.NewWriter(schema, 8)
	for i := int64(1); i <= 4; i++ {
		rec := [][]types.Value{{types.NewInt(i)}, {types.NewInt(i)}, {types.NewInt(i)}}
		if i == 4 {
			rec[1], rec[2] = []types.Value{types.NullValue()}, nil
		}
		if err := w.AppendRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	meta, rd := storeTable(t, "t", schema, 4, w)
	cat := plan.MapCatalog{"t": meta}
	for _, c := range []struct {
		where              string
		count, reads, kept int64
	}{
		{"a >= 1", 4, 0, 0},
		{"n >= 1", 3, 1, 1},
		{"r >= 1", 3, 1, 0},
	} {
		idx := core.New(core.Options{})
		stmt, err := sqlparser.Parse("SELECT COUNT(*) FROM t WHERE " + c.where)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Plan(stmt, cat)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := exec.RunTaskModel(context.Background(), p.Tasks()[0], rd, idx, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exec.Finalize(p, exec.MergeResults(p, nil, tr))
		if err != nil {
			t.Fatal(err)
		}
		st := tr.Stats
		if got := res.Rows[0][0].I; got != c.count {
			t.Errorf("%s: COUNT(*) = %d, want %d", c.where, got, c.count)
		}
		if st.ColumnReads != c.reads || idx.Stats().Stored != c.kept {
			t.Errorf("%s: %d column reads and %d entries stored, want %d and %d", c.where, st.ColumnReads, idx.Stats().Stored, c.reads, c.kept)
		}
		if decided := st.ShortCircuits == 1; decided != (c.reads == 0) {
			t.Errorf("%s: short-circuited %v with %d column reads", c.where, decided, st.ColumnReads)
		}
	}
}
