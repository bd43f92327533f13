package feisu

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/plan"
)

// TestReloadSameTableInvalidatesIndex reloads a table through Loader at the
// same prefix with different values in the same shape (same row, block and
// partition counts). SmartIndex entries are keyed by path#block and guarded
// only by the block's row count, so without invalidation the second query is
// answered from bitmaps of the superseded files. Loader.flushPartition calls
// InvalidatePath, which reaches every leaf's SmartIndex (and, with
// CacheBytes, its SSD chunks). The B-tree baseline exists only for fig 9(b)
// and never sees a rewrite; it is deliberately not covered.
func TestReloadSameTableInvalidatesIndex(t *testing.T) {
	for _, cfg := range []Config{
		{Leaves: 2, Index: IndexSmart},
		{Leaves: 2, Index: IndexSmart, CacheBytes: 1 << 20},
	} {
		t.Run(fmt.Sprintf("cache=%d", cfg.CacheBytes), func(t *testing.T) {
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			ctx := context.Background()
			const q = "SELECT SUM(id) FROM visits WHERE clicks > 4"
			load := func(clicks func(i int) int) {
				ld, err := sys.NewLoader("visits", visitSchema(), "/hdfs/visits")
				if err != nil {
					t.Fatal(err)
				}
				ld.SetPartitionRows(50)
				ld.SetBlockRows(32)
				for i := 0; i < 200; i++ {
					if err := ld.Append(Row{Int(int64(i)), Str("u"), Int(int64(clicks(i))), Float(0)}); err != nil {
						t.Fatal(err)
					}
				}
				if err := ld.Close(); err != nil {
					t.Fatal(err)
				}
			}
			sum := func() int64 {
				res, err := sys.Query(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				return res.Rows[0][0].I
			}

			load(func(i int) int { return i % 10 })
			if got := sum(); got != 10200 {
				t.Fatalf("first load: SUM(id) = %d, want 10200", got)
			}
			if sys.IndexStats().Entries == 0 {
				t.Fatal("first query stored no index entries; the test would prove nothing")
			}
			load(func(i int) int { return 9 - i%10 })
			if got := sum(); got != 9700 {
				t.Fatalf("after reload: SUM(id) = %d, want 9700 (10200 is the superseded files' answer)", got)
			}
		})
	}
}

// TestRetiredPartitionsAreReleased runs ingest → filtered query →
// retire-oldest cycles at a fixed retention window. RegisterTable diffs the
// old partition list against the new one and calls InvalidatePath for every
// path that left, so index entries and footers of retired partitions are
// dropped: resident entries and live heap at cycle 300 are within 10 % of
// cycle 100. Without the diff both grow with every cycle.
func TestRetiredPartitionsAreReleased(t *testing.T) {
	if testing.Short() {
		t.Skip("300 ingest cycles")
	}
	sys, err := New(Config{Leaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	const window, batchRows, baseRows = 4, 64, 20000
	schema := visitSchema()
	// A bulk-loaded history under the live window, as in bench's dash_ingest:
	// it sets the steady-state heap the 10 % is taken of. What still grows
	// per cycle is not cached partition state: the in-memory stores keep an
	// entry per path ever written, the converter one per source file, the
	// flight recorder a sequence counter per query id.
	loadVisits(t, sys, "/hdfs/visits", baseRows)
	var live []string
	var doc strings.Builder
	measure := func() (entries int64, heap uint64) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return sys.IndexStats().Entries, ms.HeapAlloc
	}
	var entries100 int64
	var heap100 uint64
	for cycle := 1; cycle <= 300; cycle++ {
		doc.Reset()
		for i := 0; i < batchRows; i++ {
			fmt.Fprintf(&doc, `{"id":%d,"url":"u%d","clicks":%d,"score":0.5}`+"\n", cycle*batchRows+i, i%7, i%10)
		}
		src := fmt.Sprintf("/ingest/visits/batch-%04d.json", cycle)
		if err := sys.Router().WriteFile(ctx, src, []byte(doc.String())); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.IngestOnce(ctx, "visits", schema, "/ingest/visits/", "/hdfs/visits-live"); err != nil {
			t.Fatal(err)
		}
		// The converter consumed the source; truncating it (and the retired
		// partition below) keeps the in-memory store itself from growing.
		if err := sys.Router().WriteFile(ctx, src, nil); err != nil {
			t.Fatal(err)
		}
		meta, err := sys.Master().Jobs.Lookup("visits")
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, meta.Partitions[len(meta.Partitions)-1].Path)

		res, err := sys.Query(ctx, "SELECT COUNT(*) FROM visits WHERE clicks > 4")
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(baseRows/2 + len(live)*30); res.Rows[0][0].I != want { // 30 of a batch's 64 rows have clicks > 4
			t.Fatalf("cycle %d: COUNT = %d, want %d", cycle, res.Rows[0][0].I, want)
		}

		if len(live) > window {
			retired := live[0]
			live = live[1:]
			kept := &plan.TableMeta{Name: meta.Name, Schema: meta.Schema}
			for _, p := range meta.Partitions {
				if p.Path != retired {
					kept.Partitions = append(kept.Partitions, p)
				}
			}
			if err := sys.RegisterTable(ctx, kept); err != nil {
				t.Fatal(err)
			}
			if err := sys.Router().WriteFile(ctx, retired, nil); err != nil {
				t.Fatal(err)
			}
		}
		if cycle == 100 {
			entries100, heap100 = measure()
		}
	}
	entries300, heap300 := measure()
	t.Logf("cycle 100: %d entries, %d B live; cycle 300: %d entries, %d B live", entries100, heap100, entries300, heap300)
	if entries100 == 0 {
		t.Fatal("no index entries resident at cycle 100; the test would prove nothing")
	}
	if float64(entries300) > 1.1*float64(entries100) {
		t.Errorf("index entries grew with retired partitions: %d at cycle 100, %d at cycle 300", entries100, entries300)
	}
	if float64(heap300) > 1.1*float64(heap100) {
		t.Errorf("live heap grew with retired partitions: %d B at cycle 100, %d B at cycle 300", heap100, heap300)
	}
}
