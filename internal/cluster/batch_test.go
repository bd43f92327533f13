package cluster

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/sqltest"
	"repro/internal/types"
)

// TestBroadcastJoinBatchBindsOnce: a leaf binds a batch's plan once, so the
// tasks of one batch share the broadcast dimensions' hash tables and every
// other binding. With two leaves and six partitions every batch holds three
// tasks; grouped, projected and outer broadcast joins, cold and then on a warm
// index, stay bag-equal to the reference executor on both fabrics.
func TestBroadcastJoinBatchBindsOnce(t *testing.T) {
	const parts = 6
	queries := []string{
		"SELECT name, COUNT(*) AS n, SUM(id) AS s, MIN(id) AS lo FROM logs JOIN names ON logs.v = names.v WHERE logs.v < 5 GROUP BY name",
		"SELECT logs.id, names.name FROM logs JOIN names ON logs.v = names.v WHERE logs.id >= 150 AND logs.id < 420",
		"SELECT logs.id, names.name FROM logs LEFT OUTER JOIN names ON logs.v = names.v + 3 WHERE logs.v > 5",
		"SELECT names.name, COUNT(*) AS n FROM logs JOIN names ON logs.v = names.v WHERE logs.s CONTAINS '7' GROUP BY names.name",
	}
	for _, mode := range []string{"sim", "tcp"} {
		t.Run(mode, func(t *testing.T) {
			tc := newTestClusterOn(t, mode, 2, 1, parts, nil)
			tc.addUsersDim(t)
			for leaf, batch := range tc.batches(queries[0]) {
				if len(batch) < 2 {
					t.Fatalf("leaf %s batch %v: want at least two tasks", leaf, batch)
				}
			}
			tables := referenceTables(parts)
			for _, q := range queries {
				want, err := sqltest.Run(q, tables...)
				if err != nil {
					t.Fatalf("reference %q: %v", q, err)
				}
				for _, run := range []string{"cold", "warm"} {
					res, stats := tc.query(q, QueryOptions{})
					if stats.Scan.RowsScanned == 0 {
						t.Fatalf("%s %q scanned nothing", run, q)
					}
					if got, want := rowStrings(res), referenceRows(want); !slices.Equal(got, want) {
						t.Errorf("%s %q:\n got %v\nwant %v", run, q, got, want)
					}
				}
			}
		})
	}
}

// referenceTables is newTestClusterOn's logs over parts partitions and
// addUsersDim's names, as the reference executor's tables.
func referenceTables(parts int) []*sqltest.Table {
	logs := &sqltest.Table{Name: "logs", Schema: types.MustSchema(
		types.Field{Name: "id", Type: types.Int64},
		types.Field{Name: "v", Type: types.Int64},
		types.Field{Name: "s", Type: types.String},
	)}
	for id := int64(0); id < int64(parts*testRowsPerPartition); id++ {
		logs.Rows = append(logs.Rows, types.Row{types.NewInt(id), types.NewInt(id % 10), types.NewString(fmt.Sprintf("row-%d", id))})
	}
	names := &sqltest.Table{Name: "names", Schema: types.MustSchema(
		types.Field{Name: "v", Type: types.Int64},
		types.Field{Name: "name", Type: types.String},
	)}
	for i, n := range []string{"zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine"} {
		names.Rows = append(names.Rows, types.Row{types.NewInt(int64(i)), types.NewString(n)})
	}
	return []*sqltest.Table{logs, names}
}

// referenceRows is rowStrings for the reference executor's answer.
func referenceRows(res *sqltest.Result) []string {
	return rowStrings(&exec.Result{Rows: res.Rows})
}

// TestBatchGroupResultsIndependent: the tasks of one batch share the plan's
// binding and the scanner's scratch, never what reaches a result. Two tasks
// of one leaf batch group the same keys; mutating every group, key and cell
// of one task's result, and its map, leaves the other's as it was.
func TestBatchGroupResultsIndependent(t *testing.T) {
	tc := newTestCluster(t, 1, 1, 2, nil)
	p := tc.plan("SELECT v, COUNT(*) AS n, SUM(id) AS s, MAX(s) AS m FROM logs WHERE id >= 0 GROUP BY v")
	tasks := p.Tasks()
	for _, run := range []string{"cold", "warm"} {
		reply := tc.leaves[0].runBatch(context.Background(), &taskBatch{Tasks: tasks})
		for i, r := range reply.Tasks {
			if r.Status.Err != "" || r.Result == nil || r.Result.Groups == nil {
				t.Fatalf("%s: task %d: %+v", run, i, r.Status)
			}
		}
		a, b := reply.Tasks[0].Result.Groups, reply.Tasks[1].Result.Groups
		before := renderGroups(b)
		if len(b.M) != 10 || renderGroups(a) == before {
			t.Fatalf("%s: tasks grouped %d and %d keys; want ten each, over different rows", run, len(a.M), len(b.M))
		}
		for k, g := range a.M {
			g.Keys[0] = types.NewInt(-1)
			g.Keys = append(g.Keys, types.NewString("extra"))
			for c := range g.Cells {
				g.Cells[c] = exec.Cell{Count: -7, SumI: -7, Min: types.NewInt(-7), Max: types.NewString("x")}
			}
			delete(a.M, k)
		}
		a.M["new"] = &exec.Group{Keys: []types.Value{types.NewInt(42)}, Cells: make([]exec.Cell, a.NumAggs)}
		if after := renderGroups(b); after != before {
			t.Errorf("%s: mutating task 0's groups changed task 1's:\nbefore %s\nafter  %s", run, before, after)
		}
	}
}

// renderGroups renders a partial result's groups, sorted by key.
func renderGroups(g *exec.Groups) string {
	lines := make([]string, 0, len(g.M))
	for k, grp := range g.M {
		lines = append(lines, fmt.Sprintf("%q %v %+v", k, grp.Keys, grp.Cells))
	}
	sort.Strings(lines)
	return strings.Join(lines, "; ")
}
