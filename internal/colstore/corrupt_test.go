package colstore_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/types"
)

// TestColumnShorterThanBlockIsCorrupt: a partition whose every checksum
// passes but whose footer gives a block more rows than its columns hold — a
// scalar column with fewer values, a repeated column with fewer offsets —
// fails the task with an error wrapping types.ErrCorrupt. Reading it used to
// index past the end of the column in the predicate kernel and the row
// emitter, a panic no handler recovers.
func TestColumnShorterThanBlockIsCorrupt(t *testing.T) {
	schema := types.MustSchema(
		types.Field{Name: "a", Type: types.Int64},
		types.Field{Name: "s", Type: types.String},
		types.Field{Name: "pos", Type: types.Int64, Repeated: true},
	)
	w := colstore.NewWriter(schema, 4)
	for r := 0; r < 4; r++ {
		rec := [][]types.Value{{types.NewInt(int64(r))}, {types.NewString(fmt.Sprint(r))}, {types.NewInt(int64(r)), types.NewInt(7)}}
		if err := w.AppendRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err == nil {
		data, err = colstore.WithFooter(data, func(m *colstore.FileMeta) { m.Blocks[0].Stats.NumRows = 8 })
	}
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	router := storage.NewRouter(storage.NewMemFS("", nil))
	if err := router.WriteFile(ctx, "/t/p0", data); err != nil {
		t.Fatal(err)
	}
	cat := plan.MapCatalog{"t": &plan.TableMeta{Name: "t", Schema: schema,
		Partitions: []plan.PartitionMeta{{Path: "/t/p0", Rows: 8, Bytes: int64(len(data))}}}}
	for _, sql := range []string{
		"SELECT COUNT(*) FROM t WHERE a > 1",
		"SELECT a, s FROM t",
		"SELECT pos FROM t",
	} {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Plan(stmt, cat)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if v := recover(); v != nil {
					t.Errorf("%s: panicked: %v", sql, v)
				}
			}()
			_, err := exec.RunTask(ctx, p.Tasks()[0], exec.NewStoreReader(router), nil)
			if !errors.Is(err, types.ErrCorrupt) {
				t.Errorf("%s: err = %v, want ErrCorrupt", sql, err)
			}
		}()
	}
}
