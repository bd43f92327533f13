package feisu

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/workload"
)

// parallelScanRun executes a deterministic query stream on a fresh system
// with the given intra-task scan parallelism and returns per-query rendered
// rows and ScanStats, the stream's summed ScanSimTime (the busiest leaf's
// execution-only simulated time: what workers divide) and the final
// aggregated SmartIndex counters.
func parallelScanRun(t *testing.T, workers int, wlSeed, qSeed int64) ([]string, []exec.ScanStats, time.Duration, core.Stats) {
	t.Helper()
	sys, err := New(Config{
		Leaves:            4,
		ScanWorkers:       workers,
		CacheBytes:        64 << 20,
		HeartbeatInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	spec := workload.T1Spec()
	spec.Partitions = 4
	// Blocks (1024 rows) are the unit of intra-task parallelism: four per
	// partition, and only the core columns the queries touch.
	spec.RowsPerPart = 4096
	spec.Fields = len(workload.CoreColumns)
	spec.Seed = wlSeed
	meta, err := workload.Generate(ctx, sys.Router(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterTable(ctx, meta); err != nil {
		t.Fatal(err)
	}
	queries := generateEquivalenceQueries(30, qSeed)
	rows := make([]string, len(queries))
	scans := make([]exec.ScanStats, len(queries))
	var scanSim time.Duration
	for i, q := range queries {
		res, stats, err := sys.QueryStats(ctx, q)
		if err != nil {
			t.Fatalf("workers=%d query %q: %v", workers, q, err)
		}
		rows[i] = renderRows(res)
		scans[i] = stats.Scan
		scanSim += stats.ScanSimTime
	}
	return rows, scans, scanSim, sys.IndexStats()
}

// TestParallelScanEquivalence is the tentpole invariant: the parallel leaf
// scan (8 workers striping blocks) must be bit-identical to the serial path
// (1 worker) — same rows, same per-query ScanStats, same SmartIndex
// hit/miss/store counters — across three workload seeds, while the simulated
// scan time falls by at least 2x. Run under -race by
// scripts/verify.sh, this doubles as the concurrency-safety check for
// SmartIndex and the SSD cache under concurrent scanners.
func TestParallelScanEquivalence(t *testing.T) {
	for _, seed := range []int64{11, 22, 33} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			serialRows, serialScans, serialSim, serialIdx := parallelScanRun(t, 1, seed, seed*7)
			parRows, parScans, parSim, parIdx := parallelScanRun(t, 8, seed, seed*7)
			// Four blocks per partition bound the stripe at four workers; their
			// bills compose along the critical path, so the busiest leaf's
			// simulated scan time must at least halve. It also proves the
			// parallel path ran: a one-block partition clamps to serial.
			if parSim*2 > serialSim {
				t.Fatalf("scan sim time %v at 8 workers vs %v serial: below the 2x floor", parSim, serialSim)
			}
			queries := generateEquivalenceQueries(30, seed*7)
			for i := range serialRows {
				if parRows[i] != serialRows[i] {
					t.Fatalf("rows diverged on %q:\nparallel: %s\nserial:   %s", queries[i], parRows[i], serialRows[i])
				}
				if !reflect.DeepEqual(parScans[i], serialScans[i]) {
					t.Fatalf("ScanStats diverged on %q:\nparallel: %+v\nserial:   %+v", queries[i], parScans[i], serialScans[i])
				}
			}
			if serialIdx.Hits+serialIdx.DerivedHits == 0 {
				t.Fatal("serial run recorded no SmartIndex hits; the comparison is vacuous")
			}
			if !reflect.DeepEqual(parIdx, serialIdx) {
				t.Fatalf("SmartIndex counters diverged:\nparallel: %+v\nserial:   %+v", parIdx, serialIdx)
			}
		})
	}
}
