//go:build !race

package cluster

import (
	"testing"
)

// TestTaskSetupAllocations: what a task costs the statement beyond its own
// partition is bounded. The same warm-index statement runs on a sim cluster
// (4 leaves, 2 stems, the flight recorder on) over 4 partitions and over 16;
// the allocations per added task — placement, the leaf's binding of the
// plan, the journal — stay within the slope measured once a leaf bound a
// plan per batch and the master journaled and placed a task without a
// string, a map entry or a set of its own (8.5 and 22.75 objects a task;
// 26.25 and 43.42 before), plus a slack of 2. What is left per task is
// mostly what reaches its result: the TaskResult, its groups, its bill.
func TestTaskSetupAllocations(t *testing.T) {
	const slack = 2
	for _, c := range []struct {
		name, sql string
		slope     float64
	}{
		{"count-eq", "SELECT COUNT(*) AS n FROM orders WHERE amt = 7", 8.5},
		{"group-by", "SELECT amt, COUNT(*) AS n, SUM(id) AS s FROM orders WHERE amt = 7 GROUP BY amt", 22.75},
	} {
		t.Run(c.name, func(t *testing.T) {
			allocs := func(parts int) float64 {
				sc := newShuffleCluster(t, 4, 2, parts, 1, nil)
				sc.query(c.sql, QueryOptions{}) // warms the footers and the index
				return testing.AllocsPerRun(20, func() { sc.query(c.sql, QueryOptions{}) })
			}
			a4, a16 := allocs(4), allocs(16)
			slope := (a16 - a4) / 12
			t.Logf("%.1f allocations a statement over 4 partitions, %.1f over 16: %.2f a task", a4, a16, slope)
			if slope > c.slope+slack {
				t.Errorf("%.2f allocations per added task, want at most %.2f + %d", slope, c.slope, slack)
			}
		})
	}
}
