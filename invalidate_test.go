package feisu

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/plan"
)

// TestReloadSameTableInvalidatesIndex reloads a table through Loader at the
// same prefix with different values in the same shape (same row, block and
// partition counts). SmartIndex entries are guarded only by the block's row
// count, so were they keyed by path#block alone the second query would be
// answered from bitmaps of the superseded files. Loader registers its
// partitions with Gen 0, so the reload puts every path at a fresh generation
// and block ids (path#gen#block) and SSD chunks (keyed by footer) of the old
// bytes are never hit: the cached arm first proves its SSD cache serves the
// old files. The B-tree baseline exists only for fig 9(b) and never sees a
// rewrite; it is deliberately not covered.
func TestReloadSameTableInvalidatesIndex(t *testing.T) {
	for _, cfg := range []Config{
		{Leaves: 2, Index: IndexSmart},
		{Leaves: 2, Index: IndexSmart, CacheBytes: 1 << 20, CachePrefixes: []string{"/hdfs/"}},
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
			if cfg.CacheBytes > 0 {
				if got := sum(); got != 10200 {
					t.Fatalf("first load, repeated: SUM(id) = %d, want 10200", got)
				}
				if cacheHits(sys) == 0 {
					t.Fatal("the SSD cache served no hit before the reload; the cached arm would prove nothing")
				}
			}
			load(func(i int) int { return 9 - i%10 })
			if got := sum(); got != 9700 {
				t.Fatalf("after reload: SUM(id) = %d, want 9700 (10200 is the superseded files' answer)", got)
			}
		})
	}
}

// cacheHits sums the leaves' SSD cache hits.
func cacheHits(sys *System) int64 {
	var n int64
	for name, v := range sys.Metrics().Snapshot() {
		if strings.HasSuffix(name, ".cache.hits") {
			n += v
		}
	}
	return n
}

// An SSD cache budget with no admitted prefix is refused: such a cache would
// hold nothing.
func TestCacheWithoutPrefixesRejected(t *testing.T) {
	sys, err := New(Config{Leaves: 2, CacheBytes: 1 << 20})
	if err == nil {
		sys.Close()
		t.Fatal("New accepted CacheBytes with no CachePrefixes")
	}
	if !strings.Contains(err.Error(), "CachePrefixes") {
		t.Errorf("err = %v, want it to name CachePrefixes", err)
	}
}

// TestRetiredPartitionsAreReleased runs ingest → filtered query →
// retire-oldest cycles at a fixed retention window. RegisterTable diffs the
// old entry against the new one by (path, generation) and releases every
// pair that left, so index entries and footers of retired partitions are
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

// TestRewriteRegisteredInCatalogOnly is what a master in another process
// does after a partition file is rewritten in place: it registers the table
// with that partition at Gen 0, and nothing else — no call reaches the
// leaves. With footers, SSD chunks, SmartIndex and the result cache all warm,
// the next answer must come from the new bytes.
func TestRewriteRegisteredInCatalogOnly(t *testing.T) {
	sys, err := New(Config{
		Leaves:           2,
		CacheBytes:       1 << 20,
		CachePrefixes:    []string{"/hdfs/"},
		ResultCacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	loadVisits(t, sys, "/hdfs/visits", 200) // 4 partitions of 50 rows, clicks = id % 10
	const q = "SELECT SUM(id) FROM visits WHERE clicks > 4"
	sum := func(opts ...QueryOption) int64 {
		t.Helper()
		res, err := sys.Query(ctx, q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].I
	}
	for i := 0; i < 2; i++ {
		if got := sum(); got != 10200 {
			t.Fatalf("warm-up %d: SUM(id) = %d, want 10200", i, got)
		}
	}
	if got := sum(WithoutResultCache()); got != 10200 {
		t.Fatalf("uncached warm-up: SUM(id) = %d, want 10200", got)
	}
	var chunkHits int64
	for _, c := range sys.caches {
		chunkHits += c.Hits.Value()
	}
	if sys.IndexStats().Entries == 0 || chunkHits == 0 || sys.ResultCache().Snapshot().Hits == 0 {
		t.Fatal("caches not warm; the test would prove nothing")
	}

	// Rewrite partition 0 (ids 0..49) in place: same shape, clicks reversed.
	meta, err := sys.Master().Jobs.Lookup("visits")
	if err != nil {
		t.Fatal(err)
	}
	path := meta.Partitions[0].Path
	w := colstore.NewWriter(visitSchema(), 32)
	for i := 0; i < 50; i++ {
		if err := w.Append(Row{Int(int64(i)), Str(fmt.Sprintf("http://u/%d", i%7)), Int(int64(9 - i%10)), Float(0)}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Router().WriteFile(ctx, path, data); err != nil {
		t.Fatal(err)
	}
	parts := []plan.PartitionMeta{{Path: path, Rows: 50, Bytes: int64(len(data))}}
	parts = append(parts, meta.Partitions[1:]...)
	if err := sys.Master().RegisterTable(ctx, &plan.TableMeta{Name: "visits", Schema: meta.Schema, Partitions: parts}); err != nil {
		t.Fatal(err)
	}

	// Partition 0 contributed ids 10d+5..10d+9 for d = 0..4 (675); after the
	// rewrite it contributes ids 10d+0..10d+4 (550).
	const want = 10200 - 675 + 550
	if got := sum(); got != want {
		t.Errorf("after the rewrite: SUM(id) = %d, want %d", got, want)
	}
	if got := sum(WithoutResultCache()); got != want {
		t.Errorf("after the rewrite, uncached: SUM(id) = %d, want %d", got, want)
	}
}
