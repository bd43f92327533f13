//go:build !race

package core

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// TestStoreAllocations pins what storing one entry allocates: its atom key,
// the entry itself and the vector's copy (header and words). The entry
// embeds its recency handle, so the list adds nothing.
func TestStoreAllocations(t *testing.T) {
	s := New(Options{})
	a := plan.Atom{Col: "dwell", Op: sqlparser.OpGt, Val: types.NewFloat(120.5)}
	v := bm(4096, 1, 99, 2048)
	s.Store("/hdfs/logs/part-00003#2#0", a, v, stats(0, 9, 0))
	n := testing.AllocsPerRun(100, func() { s.Store("/hdfs/logs/part-00003#2#0", a, v, stats(0, 9, 0)) })
	if n != 4 {
		t.Fatalf("Store allocates %v objects, want 4", n)
	}
}
