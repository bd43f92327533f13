package feisu

import (
	"context"
	"math"
	"testing"
)

// TestMixedNumericEqualityKeepsRows: an equality between a BIGINT and a
// DOUBLE that compare equal finds its row after block pruning, on both
// fabrics. A block's bloom filter once keyed each value by its text, so
// 1000000 and 1e+06, or 0 and -0, missed each other and the block holding the
// row was pruned.
func TestMixedNumericEqualityKeepsRows(t *testing.T) {
	for _, mode := range []string{"sim", "tcp"} {
		t.Run(mode, func(t *testing.T) {
			sys, err := New(Config{Leaves: 2, Transport: mode})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sys.Close)
			ld, err := sys.NewLoader("nums", MustSchema(Field{Name: "i", Type: Int64}, Field{Name: "f", Type: Float64}), "/hdfs/nums")
			if err != nil {
				t.Fatal(err)
			}
			ld.SetBlockRows(8)
			for r := int64(0); r < 8; r++ {
				i, f := r*3-9, float64(r*3-9)
				switch r {
				case 3:
					f = math.Copysign(0, -1)
				case 5:
					i, f = 1_000_000, 1_000_000
				}
				if err := ld.Append(Row{Int(i), Float(f)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := ld.Close(); err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{
				"SELECT COUNT(*) FROM nums WHERE i = 1000000.0",
				"SELECT COUNT(*) FROM nums WHERE f = 1000000",
				"SELECT COUNT(*) FROM nums WHERE f = 0",
			} {
				res, err := sys.Query(context.Background(), q, WithoutResultCache())
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				if got := res.Rows[0][0].I; got != 1 {
					t.Errorf("%s: COUNT(*) = %d, want 1", q, got)
				}
			}
		})
	}
}
