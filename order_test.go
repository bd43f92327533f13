package feisu

import (
	"context"
	"math"
	"testing"

	"repro/internal/types"
)

// TestOneOrderProbe loads the probe tables and checks the answers written
// out, on both fabrics: the sqltest oracle shares types.Compare, so it cannot
// judge the order alone. probe.x is {0, NaN, NaN, 7, 1, 2} in three 2-row
// partitions; wide.k holds 2^53, 2^53+1 and 2^53+2, which one DOUBLE
// literal rounds together. Under the one order NaN equals NaN and sorts
// below every number, and BIGINT against DOUBLE is exact. Each statement
// runs twice, the second time answered from SmartIndex where it can be.
// The partition {NaN, 7} once recorded min = max = NaN, so x <> 5 pruned
// it, and MAX(x) kept a leading NaN.
func TestOneOrderProbe(t *testing.T) {
	for _, mode := range []string{"sim", "tcp"} {
		t.Run(mode, func(t *testing.T) {
			sys, err := New(Config{Leaves: 2, Transport: mode})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sys.Close)
			load := func(table, col string, typ types.Type, vals []Value) {
				ld, err := sys.NewLoader(table, MustSchema(Field{Name: "id", Type: Int64}, Field{Name: col, Type: typ}), "/hdfs/"+table)
				if err != nil {
					t.Fatal(err)
				}
				ld.SetPartitionRows(2)
				for i, v := range vals {
					if err := ld.Append(Row{Int(int64(i)), v}); err != nil {
						t.Fatal(err)
					}
				}
				if err := ld.Close(); err != nil {
					t.Fatal(err)
				}
			}
			nan := Float(math.NaN())
			load("probe", "x", Float64, []Value{Float(0), nan, nan, Float(7), Float(1), Float(2)})
			load("wide", "k", Int64, []Value{Int(1 << 53), Int(1<<53 + 1), Int(1<<53 + 2)})

			for _, c := range []struct{ sql, want string }{
				{"SELECT COUNT(*) FROM probe WHERE x = 0", "1"},
				{"SELECT COUNT(*) FROM probe WHERE x = 5", "0"},
				{"SELECT COUNT(*) FROM probe WHERE x = 7", "1"},
				{"SELECT COUNT(*) FROM probe WHERE x = 1", "1"},
				{"SELECT COUNT(*) FROM probe WHERE x <> 5", "6"},
				{"SELECT COUNT(*) FROM probe WHERE NOT (x = 5)", "6"},
				{"SELECT COUNT(*) FROM probe WHERE x >= 5", "1"},
				{"SELECT COUNT(*) FROM probe WHERE x < 100", "6"},
				{"SELECT id FROM probe WHERE x <> 5", "0 ; 1 ; 2 ; 3 ; 4 ; 5"},
				{"SELECT MIN(x), MAX(x) FROM probe", "NaN|7"},
				{"SELECT x, COUNT(*) AS n FROM probe GROUP BY x", "0|1 ; 1|1 ; 2|1 ; 7|1 ; NaN|2"},
				{"SELECT id FROM wide WHERE k = 9007199254740992.0", "0"},
				{"SELECT id FROM wide WHERE k > 9007199254740992.0", "1 ; 2"},
			} {
				for run := 1; run <= 2; run++ {
					res, err := sys.Query(context.Background(), c.sql, WithoutResultCache())
					if err != nil {
						t.Fatalf("%s: %v", c.sql, err)
					}
					if got := renderRows(res); got != c.want {
						t.Errorf("run %d: %s = %s, want %s", run, c.sql, got, c.want)
					}
				}
			}
		})
	}
}
