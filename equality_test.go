package feisu

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/types"
)

// loadEqualityTables loads a fact table kf(id BIGINT, k BIGINT, x DOUBLE) of
// twelve rows over four partitions, with k = id % 4 and x holding both 0
// and -0, and a dimension kd(k DOUBLE, name STRING) whose keys are integral
// DOUBLEs, one of them -0.
func loadEqualityTables(t *testing.T, sys *System) {
	t.Helper()
	negZero := math.Copysign(0, -1)
	xs := []float64{0, 0, 0, 0, negZero, negZero, 1.5, 1.5, 2, 2, 2, 3}
	fact, err := sys.NewLoader("kf", MustSchema(
		Field{Name: "id", Type: Int64}, Field{Name: "k", Type: Int64}, Field{Name: "x", Type: Float64},
	), "/hdfs/kf")
	if err != nil {
		t.Fatal(err)
	}
	fact.SetPartitionRows(3)
	fact.SetBlockRows(2)
	for i, x := range xs {
		if err := fact.Append(Row{Int(int64(i)), Int(int64(i % 4)), Float(x)}); err != nil {
			t.Fatal(err)
		}
	}
	dim, err := sys.NewLoader("kd", MustSchema(Field{Name: "k", Type: Float64}, Field{Name: "name", Type: String}), "/hdfs/kd")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Row{{Float(1), Str("one")}, {Float(2), Str("two")}, {Float(negZero), Str("zero")}, {Float(5), Str("five")}} {
		if err := dim.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, ld := range []*Loader{fact, dim} {
		if err := ld.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJoinAndGroupByUseSQLEquality: a hash join and a GROUP BY compare keys
// as SQL's = does, on both fabrics and both join strategies. A BIGINT key
// joins the DOUBLE that equals it, -0 joins and groups with 0, and a GROUP
// BY's group for 0 counts what WHERE x = 0 counts. The expected answers are
// written out: the sqltest oracle groups with the engine's own key, so it
// cannot judge the GROUP BY.
func TestJoinAndGroupByUseSQLEquality(t *testing.T) {
	joins := []struct {
		q    string
		want []string // renderRows lines, in any order
	}{
		{"SELECT f.id, d.name FROM kf f JOIN kd d ON f.k = d.k", []string{
			`0|"zero"`, `4|"zero"`, `8|"zero"`, `1|"one"`, `5|"one"`, `9|"one"`, `2|"two"`, `6|"two"`, `10|"two"`}},
		{"SELECT f.id, d.name FROM kf f LEFT OUTER JOIN kd d ON f.k = d.k", []string{
			`0|"zero"`, `4|"zero"`, `8|"zero"`, `1|"one"`, `5|"one"`, `9|"one"`, `2|"two"`, `6|"two"`, `10|"two"`,
			`3|NULL`, `7|NULL`, `11|NULL`}},
		{"SELECT f.id, d.name FROM kf f RIGHT OUTER JOIN kd d ON f.k = d.k", []string{
			`0|"zero"`, `4|"zero"`, `8|"zero"`, `1|"one"`, `5|"one"`, `9|"one"`, `2|"two"`, `6|"two"`, `10|"two"`,
			`NULL|"five"`}},
		{"SELECT f.id, d.name FROM kf f JOIN kd d ON f.x = d.k", []string{
			`0|"zero"`, `1|"zero"`, `2|"zero"`, `3|"zero"`, `4|"zero"`, `5|"zero"`, `8|"two"`, `9|"two"`, `10|"two"`}},
	}
	const groupBy = "SELECT x, COUNT(*) AS n FROM kf GROUP BY x ORDER BY x"
	groups := []struct {
		x float64
		n int64
	}{{0, 6}, {1.5, 2}, {2, 3}, {3, 1}}

	for _, mode := range []string{"sim", "tcp"} {
		for _, arm := range []struct {
			name    string
			cfg     Config
			shuffle bool
		}{
			{"broadcast", Config{BroadcastThreshold: 0}, false},
			{"repartition", Config{BroadcastThreshold: -1, GroupShuffleRows: 1, ShufflePartitions: 3}, true},
		} {
			t.Run(mode+"/"+arm.name, func(t *testing.T) {
				cfg := arm.cfg
				cfg.Leaves, cfg.Transport, cfg.HeartbeatInterval = 4, mode, -1
				sys, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(sys.Close)
				loadEqualityTables(t, sys)
				ctx := context.Background()
				// The arm runs the strategy it is named for (RIGHT OUTER
				// always repartitions).
				for q, marker := range map[string]string{
					joins[0].q: "repartition inner join",
					groupBy:    "repartition group-by",
				} {
					explain, err := sys.Explain(q)
					if err != nil {
						t.Fatal(err)
					}
					if strings.Contains(explain, marker) != arm.shuffle {
						t.Fatalf("%s arm plans %q as:\n%s", arm.name, q, explain)
					}
				}
				for _, j := range joins {
					res, err := sys.Query(ctx, j.q)
					if err != nil {
						t.Fatalf("%s: %v", j.q, err)
					}
					want := slices.Clone(j.want)
					slices.Sort(want)
					if got := renderRows(res); got != strings.Join(want, " ; ") {
						t.Errorf("%s:\n got %s\nwant %s", j.q, got, strings.Join(want, " ; "))
					}
				}

				res, err := sys.Query(ctx, groupBy)
				if err != nil {
					t.Fatal(err)
				}
				ok := len(res.Rows) == len(groups)
				for i := 0; ok && i < len(groups); i++ {
					ok = types.Equal(res.Rows[i][0], Float(groups[i].x)) && res.Rows[i][1].I == groups[i].n
				}
				if !ok {
					t.Errorf("GROUP BY x = %s, want 0|6 ; 1.5|2 ; 2|3 ; 3|1 (-0 in the group of 0)", renderRows(res))
				}
				res, err = sys.Query(ctx, "SELECT COUNT(*) FROM kf WHERE x = 0")
				if err != nil {
					t.Fatal(err)
				}
				if n := res.Rows[0][0].I; n != groups[0].n {
					t.Errorf("WHERE x = 0 counts %d, GROUP BY x's group of 0 must count the same, want %d", n, groups[0].n)
				}
			})
		}
	}
}
