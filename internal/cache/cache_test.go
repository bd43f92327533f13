package cache

import (
	"context"
	"errors"
	"testing"

	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/types"
)

// fakeReader counts underlying reads.
type fakeReader struct {
	meta  *colstore.FileMeta
	reads int
	fail  bool
}

func (f *fakeReader) Meta(ctx context.Context, part plan.PartitionMeta) (*colstore.FileMeta, error) {
	return f.meta, nil
}

func (f *fakeReader) Column(ctx context.Context, path string, meta *colstore.FileMeta, block, col int) (*colstore.Column, error) {
	if f.fail {
		return nil, errors.New("boom")
	}
	f.reads++
	c := colstore.NewColumn(types.Int64)
	_ = c.Append(types.NewInt(int64(block*10 + col)))
	return c, nil
}

func testMeta(nBlocks, nCols int, chunk int64) *colstore.FileMeta {
	m := &colstore.FileMeta{Schema: types.MustSchema(types.Field{Name: "a", Type: types.Int64})}
	for b := 0; b < nBlocks; b++ {
		bm := colstore.BlockMeta{Ordinal: b}
		for c := 0; c < nCols; c++ {
			bm.ColExtents = append(bm.ColExtents, colstore.ColExtent{Off: 0, Len: chunk})
		}
		m.Blocks = append(m.Blocks, bm)
	}
	return m
}

func TestCacheHitAvoidsUnderlyingRead(t *testing.T) {
	f := &fakeReader{meta: testMeta(2, 1, 100)}
	r := NewReader(f, Options{CapacityBytes: 1000, Prefixes: []string{"/hot/"}, Model: sim.DefaultCostModel()})
	ctx := context.Background()

	if _, err := r.Column(ctx, "/hot/t", f.meta, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Column(ctx, "/hot/t", f.meta, 0, 0); err != nil {
		t.Fatal(err)
	}
	if f.reads != 1 {
		t.Errorf("underlying reads = %d, want 1", f.reads)
	}
	if r.Hits.Value() != 1 || r.Misses.Value() != 1 {
		t.Errorf("hits=%d misses=%d", r.Hits.Value(), r.Misses.Value())
	}
	if r.MissRatio() != 0.5 {
		t.Errorf("miss ratio = %v", r.MissRatio())
	}
}

func TestCacheHitBilledAsSSD(t *testing.T) {
	f := &fakeReader{meta: testMeta(1, 1, 100)}
	model := sim.DefaultCostModel()
	r := NewReader(f, Options{CapacityBytes: 1000, Prefixes: []string{"/"}, Model: model})
	ctx := context.Background()
	if _, err := r.Column(ctx, "/t", f.meta, 0, 0); err != nil {
		t.Fatal(err)
	}
	bill := sim.NewBill()
	if _, err := r.Column(storage.WithBill(ctx, bill), "/t", f.meta, 0, 0); err != nil {
		t.Fatal(err)
	}
	if bill.Bytes(sim.DeviceSSD) != 100 {
		t.Errorf("ssd bytes = %d", bill.Bytes(sim.DeviceSSD))
	}
}

func TestAdmissionPreference(t *testing.T) {
	f := &fakeReader{meta: testMeta(1, 1, 100)}
	r := NewReader(f, Options{CapacityBytes: 1000, Prefixes: []string{"/hot/"}})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := r.Column(ctx, "/cold/t", f.meta, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if f.reads != 3 || r.Bypass.Value() != 3 {
		t.Errorf("reads=%d bypass=%d", f.reads, r.Bypass.Value())
	}
	if r.Bytes() != 0 {
		t.Error("non-admitted data must not be cached")
	}
}

func TestCacheDisabled(t *testing.T) {
	f := &fakeReader{meta: testMeta(1, 1, 100)}
	r := NewReader(f, Options{CapacityBytes: 0, Prefixes: []string{"/"}})
	ctx := context.Background()
	_, _ = r.Column(ctx, "/t", f.meta, 0, 0)
	_, _ = r.Column(ctx, "/t", f.meta, 0, 0)
	if f.reads != 2 {
		t.Errorf("disabled cache reads = %d", f.reads)
	}
}

func TestLRUEviction(t *testing.T) {
	f := &fakeReader{meta: testMeta(3, 1, 100)}
	r := NewReader(f, Options{CapacityBytes: 250, Prefixes: []string{"/"}})
	ctx := context.Background()
	// Fill blocks 0, 1; touch 0; insert 2 -> evict 1.
	_, _ = r.Column(ctx, "/t", f.meta, 0, 0)
	_, _ = r.Column(ctx, "/t", f.meta, 1, 0)
	_, _ = r.Column(ctx, "/t", f.meta, 0, 0) // hit, refresh
	_, _ = r.Column(ctx, "/t", f.meta, 2, 0)
	if r.Bytes() != 200 {
		t.Errorf("bytes = %d", r.Bytes())
	}
	f.reads = 0
	_, _ = r.Column(ctx, "/t", f.meta, 0, 0)
	if f.reads != 0 {
		t.Error("block 0 should still be cached")
	}
	_, _ = r.Column(ctx, "/t", f.meta, 1, 0)
	if f.reads != 1 {
		t.Error("block 1 should have been evicted")
	}
}

func TestOversizeChunkNotCached(t *testing.T) {
	f := &fakeReader{meta: testMeta(1, 1, 1000)}
	r := NewReader(f, Options{CapacityBytes: 100, Prefixes: []string{"/"}})
	ctx := context.Background()
	_, _ = r.Column(ctx, "/t", f.meta, 0, 0)
	if r.Bytes() != 0 {
		t.Error("oversize chunk must not be cached")
	}
}

func TestErrorPassthrough(t *testing.T) {
	f := &fakeReader{meta: testMeta(1, 1, 100), fail: true}
	r := NewReader(f, Options{CapacityBytes: 1000, Prefixes: []string{"/"}})
	if _, err := r.Column(context.Background(), "/t", f.meta, 0, 0); err == nil {
		t.Error("underlying error should pass through")
	}
	if r.Bytes() != 0 {
		t.Error("failed read must not be cached")
	}
}

func TestMetaDelegates(t *testing.T) {
	f := &fakeReader{meta: testMeta(1, 1, 100)}
	r := NewReader(f, Options{})
	m, err := r.Meta(context.Background(), plan.PartitionMeta{Path: "/t"})
	if err != nil || m != f.meta {
		t.Error("Meta should delegate")
	}
}

// TestChunksKeyedByFooter: a rewritten partition file is read through a new
// footer (a new generation), and a chunk cached under the old footer is
// never served for it — the path alone decides nothing. The old chunks are
// not dropped; they age out under the LRU budget.
func TestChunksKeyedByFooter(t *testing.T) {
	f := &fakeReader{meta: testMeta(2, 2, 100)}
	r := NewReader(f, Options{CapacityBytes: 10000, Prefixes: []string{"/hot/"}})
	ctx := context.Background()
	old, rewritten := f.meta, testMeta(2, 2, 100)
	for b := 0; b < 2; b++ {
		for c := 0; c < 2; c++ {
			if _, err := r.Column(ctx, "/hot/a", old, b, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.reads = 0
	if _, err := r.Column(ctx, "/hot/a", rewritten, 1, 1); err != nil {
		t.Fatal(err)
	}
	if f.reads != 1 || r.Hits.Value() != 0 {
		t.Fatalf("a chunk cached under the old footer answered the new one: reads=%d hits=%d", f.reads, r.Hits.Value())
	}
	if _, err := r.Column(ctx, "/hot/a", old, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Column(ctx, "/hot/a", rewritten, 1, 1); err != nil {
		t.Fatal(err)
	}
	if f.reads != 1 || r.Hits.Value() != 2 {
		t.Errorf("each footer should keep hitting its own chunk: reads=%d hits=%d", f.reads, r.Hits.Value())
	}
	if r.Bytes() != 500 {
		t.Errorf("bytes = %d, want 500 (four old chunks and one new)", r.Bytes())
	}
}
