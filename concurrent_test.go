package feisu

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/workload"
)

// newConcurrentSystem returns a fresh four-leaf system whose SSD column cache
// admits T1, over four partitions of T1 generated from wlSeed: four blocks
// (1024 rows) per partition, and only the core columns the queries touch.
func newConcurrentSystem(t *testing.T, wlSeed int64) *System {
	t.Helper()
	sys, err := New(Config{
		Leaves:            4,
		CacheBytes:        64 << 20,
		CachePrefixes:     []string{"/hdfs/"},
		HeartbeatInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	ctx := context.Background()
	spec := workload.T1Spec()
	spec.Partitions = 4
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
	return sys
}

// TestConcurrentStatementsEquivalence runs a 30-statement stream once
// serially, then on a fresh system from four goroutines at once, each
// starting at a different statement: every answer must equal the serial
// run's. Leaves then scan one partition's blocks from several tasks at a
// time, so under -race (scripts/verify.sh) this is the concurrency check of
// SmartIndex and the SSD column cache under concurrent scanners.
func TestConcurrentStatementsEquivalence(t *testing.T) {
	const streams = 4
	for _, seed := range []int64{11, 22, 33} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ctx := context.Background()
			queries := generateEquivalenceQueries(30, seed*7)
			want := make([]string, len(queries))
			serial := newConcurrentSystem(t, seed)
			for i, q := range queries {
				res, err := serial.Query(ctx, q)
				if err != nil {
					t.Fatalf("serial %q: %v", q, err)
				}
				want[i] = renderRows(res)
			}
			if st := serial.IndexStats(); st.Hits+st.DerivedHits == 0 {
				t.Fatal("serial run recorded no SmartIndex hits; the comparison is vacuous")
			}

			sys := newConcurrentSystem(t, seed)
			var wg sync.WaitGroup
			errs := make(chan error, streams*len(queries))
			for g := 0; g < streams; g++ {
				wg.Add(1)
				go func(from int) {
					defer wg.Done()
					for k := range queries {
						i := (from + k) % len(queries)
						res, err := sys.Query(ctx, queries[i])
						if err != nil {
							errs <- fmt.Errorf("%q: %w", queries[i], err)
						} else if got := renderRows(res); got != want[i] {
							errs <- fmt.Errorf("rows diverged on %q:\nconcurrent: %s\nserial:     %s", queries[i], got, want[i])
						}
					}
				}(g * len(queries) / streams)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if r := sys.CacheMissRatio(); r == 0 || r == 1 {
				t.Fatalf("SSD cache miss ratio %v under concurrent statements: the cache was not exercised", r)
			}
		})
	}
}
