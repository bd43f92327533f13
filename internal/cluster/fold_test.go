package cluster

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/transport"
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
		tr, err := exec.RunTaskModel(context.Background(), tasks[i], reader, nil, nil)
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
// master's backup task. With stall set, that first read instead hangs until
// its attempt's TaskTimeout gives up on it.
type failOnceReader struct {
	exec.PartitionReader
	path  string
	done  *atomic.Bool
	stall bool
}

func (r *failOnceReader) Meta(ctx context.Context, part plan.PartitionMeta) (*colstore.FileMeta, error) {
	if part.Path == r.path && r.done.CompareAndSwap(false, true) {
		if r.stall {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("failOnceReader: first read of %s", part.Path)
	}
	return r.PartitionReader.Meta(ctx, part)
}

// TestRetriedTaskFoldsAtItsOrdinal: with task k failing at the stem — a read
// error, or stalled past TaskTimeout — and retried by the master on another
// leaf, the merged result is still the left fold over ordinals 0..n-1, bit
// for bit: the stem folds only the prefix before k and relays the tail, so
// the backup task's result lands between them however late it ran. Folding
// it last (arrival order) would give different bits, which the test checks
// so that it cannot pass by accident. The batch-middle input fails the
// middle task of a leaf's three-task batch: its siblings before and after it
// in the one message still fold at their own ordinals.
func TestRetriedTaskFoldsAtItsOrdinal(t *testing.T) {
	n := len(foldValues)
	for _, stems := range []int{0, 1} {
		for _, stall := range []bool{false, true} {
			for _, input := range []string{"0", "3", "7", "batch-middle"} {
				mode, opts := "fail", QueryOptions{}
				if stall {
					mode, opts = "stall", QueryOptions{TaskTimeout: 200 * time.Millisecond}
				}
				name := fmt.Sprintf("stems%d/%s%s", stems, mode, input)
				if input == "batch-middle" {
					name = fmt.Sprintf("stems%d/%s-batch-middle", stems, mode)
				}
				t.Run(name, func(t *testing.T) {
					leaves := 4
					if input == "batch-middle" {
						leaves = 3 // eight tasks: batches of three, three and two
					}
					tc := newTestCluster(t, leaves, stems, 1, nil)
					tc.addFoldTable()
					k, err := strconv.Atoi(input)
					if err != nil {
						k = tc.batchMiddle(3)
					}
					want := tc.foldInOrder(ascending(n))
					if k != n-1 {
						last := append(append(ascending(n)[:k:k], ascending(n)[k+1:]...), k)
						if tc.foldInOrder(last) == want {
							t.Fatalf("folding task %d last gives the same bits; foldValues are not order-sensitive enough", k)
						}
					}
					failed := new(atomic.Bool)
					for _, l := range tc.leaves {
						l.Reader = &failOnceReader{PartitionReader: l.Reader, path: fmt.Sprintf("/hdfs/f/p%d", k), done: failed, stall: stall}
					}
					res, stats := tc.query(foldSQL, opts)
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
}

// limitSQL selects a different number of rows from each partition of the
// logs table: 100 from p0, 65 from p1 and 30 from each one after.
const limitSQL = "SELECT id, s FROM logs WHERE v < 3 OR id < 150 LIMIT %d"

// limitReference is the reference answer to limitSQL under limit: each
// partition's exec.RunTaskModel rows, concatenated in ordinal order and cut to
// the limit, no cluster machinery. It also returns each task's row count by
// ordinal.
func (tc *testCluster) limitReference(limit int) (want [][]types.Value, taskRows []int) {
	tc.t.Helper()
	reader := exec.NewStoreReader(tc.router)
	for _, task := range tc.plan(fmt.Sprintf(limitSQL, limit)).Tasks() {
		tr, err := exec.RunTaskModel(context.Background(), task, reader, nil, nil)
		if err != nil {
			tc.t.Fatal(err)
		}
		want, taskRows = append(want, tr.Rows...), append(taskRows, len(tr.Rows))
	}
	return want[:min(len(want), limit)], taskRows
}

// skipped sums the leaves' tasks_skipped counters.
func (tc *testCluster) skipped() (n int64) {
	for _, l := range tc.leaves {
		n += l.Skipped.Value()
	}
	return n
}

// TestLimitAnswerIsOrdinalPrefix: a pushed-down LIMIT without ORDER BY
// answers the first L rows of the per-partition outputs in ordinal order,
// value for value, although each leaf hands a task only the rows its batch
// still misses and skips the tasks after the batch has L. The limits are 0,
// 1, the first task's row count, the end of the first two tasks of a batch,
// the end of a whole batch and more than the table holds. L = 0 and 1 must
// skip tasks, so the test cannot pass without entering the path. The
// batch-middle variant fails the middle task of a leaf's three-task batch
// once, under limits that make it run: the same rows come back, with its
// backup task's rows at its ordinal.
func TestLimitAnswerIsOrdinalPrefix(t *testing.T) {
	const table = 8 * testRowsPerPartition
	for _, mode := range []string{"sim", "tcp"} {
		for _, leaves := range []int{1, 2, 3, 4} {
			name := fmt.Sprintf("%s/leaves%d", mode, leaves)
			if leaves == 3 {
				name = mode + "/batch-middle" // eight tasks: batches of three, three and two
			}
			t.Run(name, func(t *testing.T) {
				tc := newTestClusterOn(t, mode, leaves, 1, 8, nil)
				_, taskRows := tc.limitReference(table)
				var batch []int // the largest batch, ascending
				batches := tc.batches(fmt.Sprintf(limitSQL, 1))
				for _, l := range tc.leaves {
					if b := batches[l.Name]; len(b) > len(batch) {
						batch = b
					}
				}
				whole := 0
				for _, o := range batch {
					whole += taskRows[o]
				}
				type limitCase struct {
					kind  string
					limit int
				}
				limits := []limitCase{{"zero", 0}, {"one", 1}, {"first-task", taskRows[0]},
					{"two-tasks", taskRows[batch[0]] + taskRows[batch[1]]}, {"whole-batch", whole}, {"more-than-table", table + 1}}
				var failed *atomic.Bool
				if leaves == 3 {
					if len(batch) != 3 {
						t.Fatalf("largest batch %v, want three tasks", batch)
					}
					failed = new(atomic.Bool)
					for _, l := range tc.leaves {
						l.Reader = &failOnceReader{PartitionReader: l.Reader, path: fmt.Sprintf("/hdfs/logs/p%d", batch[1]), done: failed}
					}
					// The middle task runs only when the first leaves rows missing.
					limits = []limitCase{{"first-plus-one", taskRows[batch[0]] + 1}, {"whole-batch", whole}, {"more-than-table", table + 1}}
				}
				for _, c := range limits {
					kind, limit := c.kind, c.limit
					if failed != nil {
						failed.Store(false)
					}
					before := tc.skipped()
					res, stats := tc.query(fmt.Sprintf(limitSQL, limit), QueryOptions{})
					want, _ := tc.limitReference(limit)
					if !slices.EqualFunc(res.Rows, want, slices.Equal) {
						t.Errorf("LIMIT %d (%s): %d rows %v, want the ordinal-order prefix: %d rows %v", limit, kind, len(res.Rows), res.Rows, len(want), want)
					}
					if failed != nil && (stats.BackupTasks != 1 || stats.TasksFailed != 0) {
						t.Errorf("LIMIT %d (%s): backups=%d failed=%d, want the middle task retried once", limit, kind, stats.BackupTasks, stats.TasksFailed)
					}
					if skipped := tc.skipped() - before; limit <= 1 && skipped == 0 {
						t.Errorf("LIMIT %d (%s): no task skipped", limit, kind)
					}
				}
			})
		}
	}
}

// batchMiddle places foldSQL's tasks as the statement will and returns the
// middle ordinal of the first leaf's batch of size tasks.
func (tc *testCluster) batchMiddle(size int) int {
	tc.t.Helper()
	batches := tc.batches(foldSQL)
	for _, l := range tc.leaves {
		if b := batches[l.Name]; len(b) == size {
			return b[size/2]
		}
	}
	tc.t.Fatalf("no leaf got a batch of %d tasks: %v", size, batches)
	return -1
}

// batches places sql's tasks as the statement will — placement is a
// function of the catalog and the fleet's load, both idle here — and returns
// each leaf's batch: its ordinals, ascending.
func (tc *testCluster) batches(sql string) map[string][]int {
	tc.t.Helper()
	tasks := tc.plan(sql).Tasks()
	assign, err := tc.master.Scheduler.PlanAll(tasks)
	if err != nil {
		tc.t.Fatal(err)
	}
	batches := map[string][]int{}
	for _, task := range tasks { // ascending ordinal, as a batch is sent
		tc.master.Scheduler.ReleaseTask(assign[task.Ordinal])
		batches[assign[task.Ordinal]] = append(batches[assign[task.Ordinal]], task.Ordinal)
	}
	return batches
}

// reducerDelay holds the master's Control calls to each stem back by that
// stem's entry, which orders the arrival of the reducers' replies.
type reducerDelay map[string]time.Duration

func (d reducerDelay) Intercept(ctx context.Context, from, to string, class transport.Class, size int64) transport.Fault {
	if class == transport.Control && from == "master" {
		return transport.Fault{Delay: d[to]}
	}
	return transport.Fault{}
}

// TestReduceFoldsInReducerOrder: the master folds the reducers' replies in
// ascending reducer index, never in arrival order. Three reducers answer a
// join with float aggregates first to last, then last to first, and every
// DOUBLE cell must agree bit for bit. It takes three: with two reducers the
// one merge is commutative, and either arrival order gives the same bits.
func TestReduceFoldsInReducerOrder(t *testing.T) {
	sc := newShuffleCluster(t, 6, 3, 6, 2, func(cfg *MasterConfig) {
		cfg.Planner = repartitionOpts()
	})
	const sql = "SELECT u.region, SUM(o.amt * 0.1), AVG(o.amt / 3.0) FROM orders o JOIN users u ON o.uid = u.uid GROUP BY region"
	var bits [2][]uint64
	for i, delay := range []reducerDelay{
		{"stem1": 30 * time.Millisecond, "stem2": 60 * time.Millisecond},
		{"stem0": 60 * time.Millisecond, "stem1": 30 * time.Millisecond},
	} {
		sc.fabric.SetInterceptor(delay)
		res, _ := sc.query(sql, QueryOptions{})
		sort.Slice(res.Rows, func(a, b int) bool { return res.Rows[a][0].I < res.Rows[b][0].I })
		for _, row := range res.Rows {
			bits[i] = append(bits[i], math.Float64bits(row[1].F), math.Float64bits(row[2].F))
		}
	}
	sc.fabric.SetInterceptor(nil)
	if len(bits[0]) != 10 || len(bits[1]) != 10 {
		t.Fatalf("%d and %d DOUBLE cells, want 10 each (five regions)", len(bits[0]), len(bits[1]))
	}
	for c := range bits[0] {
		if bits[0][c] != bits[1][c] {
			t.Errorf("cell %d: %v when the reducers answer in order, %v in reverse",
				c, math.Float64frombits(bits[0][c]), math.Float64frombits(bits[1][c]))
		}
	}
}
