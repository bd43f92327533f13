package cluster

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/types"
)

// foldValues are one DOUBLE per partition of table "f", chosen so that
// SUM(x) depends on the order the partitions are folded in: moving any one
// of them to the end of the fold changes the last bits of the sum.
var foldValues = []float64{0.1, 1e15 + 0.3, -0.7, 3e-5, 7e10 + 0.11, -1e15, 0.013, 5e5 + 0.77}

const foldSQL = "SELECT SUM(x) FROM f"

// addFoldTable registers table "f": one partition, one row, per foldValues
// entry.
func (tc *testCluster) addFoldTable() {
	tc.t.Helper()
	schema := types.MustSchema(types.Field{Name: "x", Type: types.Float64})
	meta := &plan.TableMeta{Name: "f", Schema: schema}
	ctx := context.Background()
	for i, x := range foldValues {
		w := colstore.NewWriter(schema, 32)
		if err := w.Append(types.Row{types.NewFloat(x)}); err != nil {
			tc.t.Fatal(err)
		}
		data, err := w.Finish()
		if err != nil {
			tc.t.Fatal(err)
		}
		path := fmt.Sprintf("/hdfs/f/p%d", i)
		if err := tc.router.WriteFile(ctx, path, data); err != nil {
			tc.t.Fatal(err)
		}
		meta.Partitions = append(meta.Partitions, plan.PartitionMeta{Path: path, Rows: 1, Bytes: int64(len(data))})
	}
	if err := tc.master.RegisterTable(ctx, meta); err != nil {
		tc.t.Fatal(err)
	}
}

// foldInOrder is the reference: the tasks of foldSQL executed in-process
// and merged in the given ordinal order, no cluster machinery.
func (tc *testCluster) foldInOrder(order []int) uint64 {
	tc.t.Helper()
	p := tc.plan(foldSQL)
	tasks := p.Tasks()
	reader := exec.NewStoreReader(tc.router)
	var merged *exec.TaskResult
	for _, i := range order {
		tr, err := exec.RunTask(context.Background(), tasks[i], reader, nil)
		if err != nil {
			tc.t.Fatal(err)
		}
		merged = exec.MergeResults(p, merged, tr)
	}
	res, err := exec.Finalize(p, merged)
	if err != nil {
		tc.t.Fatal(err)
	}
	return math.Float64bits(res.Rows[0][0].F)
}

func ascending(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// failOnceReader fails the first read of one partition, whichever leaf it
// happens on, so exactly that task fails at the stem and succeeds as the
// master's backup task.
type failOnceReader struct {
	exec.PartitionReader
	path string
	done *atomic.Bool
}

func (r *failOnceReader) Meta(ctx context.Context, path string) (*colstore.FileMeta, error) {
	if path == r.path && r.done.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("failOnceReader: first read of %s", path)
	}
	return r.PartitionReader.Meta(ctx, path)
}

// TestRetriedTaskFoldsAtItsOrdinal: with task k failing at the stem and
// retried by the master, the merged result is still the left fold over
// ordinals 0..n-1, bit for bit — the stem folds only the prefix before k and
// relays the tail, so the backup task's result lands between them. Folding
// it last (arrival order) would give different bits, which the test checks
// so that it cannot pass by accident.
func TestRetriedTaskFoldsAtItsOrdinal(t *testing.T) {
	n := len(foldValues)
	for _, stems := range []int{0, 1} {
		for _, k := range []int{0, 3, n - 1} {
			t.Run(fmt.Sprintf("stems%d/fail%d", stems, k), func(t *testing.T) {
				tc := newTestCluster(t, 4, stems, 1, nil)
				tc.addFoldTable()
				want := tc.foldInOrder(ascending(n))
				if k != n-1 {
					last := append(append(ascending(n)[:k:k], ascending(n)[k+1:]...), k)
					if tc.foldInOrder(last) == want {
						t.Fatalf("folding task %d last gives the same bits; foldValues are not order-sensitive enough", k)
					}
				}
				failed := new(atomic.Bool)
				for _, l := range tc.leaves {
					l.Reader = &failOnceReader{PartitionReader: l.Reader, path: fmt.Sprintf("/hdfs/f/p%d", k), done: failed}
				}
				res, stats := tc.query(foldSQL, QueryOptions{HedgeDelay: -1})
				if stats.BackupTasks != 1 || stats.TasksFailed != 0 {
					t.Fatalf("backups=%d failed=%d, want exactly task %d retried", stats.BackupTasks, stats.TasksFailed, k)
				}
				if got := math.Float64bits(res.Rows[0][0].F); got != want {
					t.Errorf("SUM = %x (%v), want the left fold %x (%v)", got, res.Rows[0][0].F, want, math.Float64frombits(want))
				}
			})
		}
	}
}

// TestHedgedTaskFoldsAtItsOrdinal: a hedged task's result folds at the
// task's ordinal whichever attempt won — the attempt decides which leaf ran
// it, not where it goes.
func TestHedgedTaskFoldsAtItsOrdinal(t *testing.T) {
	for _, backupWins := range []bool{true, false} {
		t.Run(fmt.Sprintf("backupWins=%v", backupWins), func(t *testing.T) {
			tc := newTestCluster(t, 4, 1, 1, nil)
			tc.addFoldTable()
			want := tc.foldInOrder(ascending(len(foldValues)))
			// leaf0 looks like a straggler, so its tasks get a backup leaf.
			tc.master.Manager.ReportTaskTime("leaf0", time.Second)
			for _, l := range tc.leaves[1:] {
				tc.master.Manager.ReportTaskTime(l.Name, time.Millisecond)
			}
			if backupWins {
				tc.leaves[0].SetStall(300 * time.Millisecond)
			} else {
				// The hedge fires, but the backup leaves are slower still.
				tc.leaves[0].SetStall(30 * time.Millisecond)
				for _, l := range tc.leaves[1:] {
					l.SetStall(300 * time.Millisecond)
				}
			}
			res, stats := tc.query(foldSQL, QueryOptions{HedgeDelay: 2 * time.Millisecond})
			if stats.HedgedTasks == 0 || (stats.HedgesWon > 0) != backupWins {
				t.Fatalf("hedged=%d won=%d, want hedges fired and backupWins=%v", stats.HedgedTasks, stats.HedgesWon, backupWins)
			}
			if got := math.Float64bits(res.Rows[0][0].F); got != want {
				t.Errorf("SUM = %x, want the left fold %x", got, want)
			}
		})
	}
}
