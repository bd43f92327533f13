package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

var ctxb = context.Background()

// fakeClock is an injectable time source.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }
func newClock() *fakeClock                   { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func atom(col string, op sqlparser.BinaryOp, v int64) plan.Atom {
	return plan.Atom{Col: col, Op: op, Val: types.NewInt(v)}
}

func bm(n int, set ...int) *bitmap.Bitmap {
	b := bitmap.New(n)
	for _, i := range set {
		b.Set(i)
	}
	return b
}

func stats(min, max int64, nulls int) colstore.Stats {
	return colstore.Stats{Min: types.NewInt(min), Max: types.NewInt(max), NullCount: nulls}
}

func TestStoreAndLookupExact(t *testing.T) {
	s := New(Options{})
	a := atom("c2", sqlparser.OpGt, 5)
	s.Store("b0", a, bm(10, 1, 3), stats(0, 9, 0))
	got, ok := s.Lookup(ctxb, "b0", a, 10)
	if !ok || got.Count() != 2 || !got.Get(1) || !got.Get(3) {
		t.Fatalf("lookup = %v, %v", got, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Stored != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLookupMiss(t *testing.T) {
	s := New(Options{})
	if _, ok := s.Lookup(ctxb, "b0", atom("c2", sqlparser.OpGt, 5), 10); ok {
		t.Error("empty index should miss")
	}
	if s.Stats().Misses != 1 {
		t.Errorf("stats = %+v", s.Stats())
	}
}

func TestLookupWrongBlockOrRowCount(t *testing.T) {
	s := New(Options{})
	a := atom("c2", sqlparser.OpGt, 5)
	s.Store("b0", a, bm(10, 1), stats(0, 9, 0))
	if _, ok := s.Lookup(ctxb, "b1", a, 10); ok {
		t.Error("different block should miss")
	}
	if _, ok := s.Lookup(ctxb, "b0", a, 11); ok {
		t.Error("row-count mismatch should invalidate")
	}
	if s.Stats().Entries != 0 {
		t.Error("mismatched entry should be dropped")
	}
}

func TestComplementDerivation(t *testing.T) {
	// Paper Fig. 7: a cached index for c2 > 5 answers c2 <= 5 via bit-NOT.
	s := New(Options{})
	s.Store("b0", atom("c2", sqlparser.OpGt, 5), bm(4, 0, 2), stats(0, 9, 0))
	got, ok := s.Lookup(ctxb, "b0", atom("c2", sqlparser.OpLe, 5), 4)
	if !ok {
		t.Fatal("complement lookup should hit")
	}
	if got.Get(0) || !got.Get(1) || got.Get(2) || !got.Get(3) {
		t.Errorf("derived bitmap = %v", got.Selected())
	}
	if s.Stats().DerivedHits != 1 {
		t.Errorf("stats = %+v", s.Stats())
	}
}

func TestNegatedAtomUsesPositiveEntry(t *testing.T) {
	s := New(Options{})
	a := plan.Atom{Col: "q", Op: sqlparser.OpContains, Val: types.NewString("spam")}
	s.Store("b0", a, bm(4, 1), colstore.Stats{})
	neg := a
	neg.Negated = true
	// The index answers the negated form via bit-NOT of the positive
	// entry (sound here: the stored stats report no NULLs).
	got, ok := s.Lookup(ctxb, "b0", neg, 4)
	if !ok {
		t.Fatal("negated lookup should hit")
	}
	if got.Get(1) || got.Count() != 3 {
		t.Fatalf("negated bitmap = %v", got.Selected())
	}
	if s.Stats().DerivedHits != 1 {
		t.Errorf("stats = %+v", s.Stats())
	}
}

func TestNegationDerivationUnsoundWithNulls(t *testing.T) {
	// A column with NULLs must not serve bit-NOT derivations: NULL rows
	// satisfy neither the predicate nor its complement.
	s := New(Options{})
	s.Store("b0", atom("c2", sqlparser.OpGt, 5), bm(4, 0, 2), stats(0, 9, 1))
	if _, ok := s.Lookup(ctxb, "b0", atom("c2", sqlparser.OpLe, 5), 4); ok {
		t.Error("complement derivation must be disabled with NULLs present")
	}
	neg := plan.Atom{Col: "c2", Op: sqlparser.OpGt, Val: types.NewInt(5), Negated: true}
	if _, ok := s.Lookup(ctxb, "b0", neg, 4); ok {
		t.Error("negated lookup must be disabled with NULLs present")
	}
	// The exact positive entry still hits.
	if _, ok := s.Lookup(ctxb, "b0", atom("c2", sqlparser.OpGt, 5), 4); !ok {
		t.Error("exact entry should still hit")
	}
}

func TestRangeMetadataAnswer(t *testing.T) {
	s := New(Options{})
	// Stored entry for c2 > 100 carries min=3 max=9 nulls=0; the atom
	// c2 <= 50 is therefore all-true for this block.
	s.Store("b0", atom("c2", sqlparser.OpGt, 100), bm(8), stats(3, 9, 0))
	got, ok := s.Lookup(ctxb, "b0", atom("c2", sqlparser.OpLe, 50), 8)
	if !ok || !got.All() {
		t.Fatalf("range answer = %v, %v", got, ok)
	}
	if s.Stats().DerivedHits != 1 {
		t.Errorf("stats = %+v", s.Stats())
	}
	// With NULLs present, the all-true shortcut is unsound and must miss.
	s2 := New(Options{})
	s2.Store("b0", atom("c2", sqlparser.OpGt, 100), bm(8), stats(3, 9, 2))
	if _, ok := s2.Lookup(ctxb, "b0", atom("c2", sqlparser.OpLe, 50), 8); ok {
		t.Error("NULLs must disable range answers")
	}
}

func TestTTLExpiry(t *testing.T) {
	clk := newClock()
	s := New(Options{TTL: time.Hour, Now: clk.now})
	a := atom("c2", sqlparser.OpGt, 5)
	s.Store("b0", a, bm(4, 0), stats(0, 9, 0))
	clk.advance(30 * time.Minute)
	if _, ok := s.Lookup(ctxb, "b0", a, 4); !ok {
		t.Fatal("fresh entry should hit")
	}
	clk.advance(2 * time.Hour)
	if _, ok := s.Lookup(ctxb, "b0", a, 4); ok {
		t.Fatal("expired entry should miss")
	}
	if s.Stats().EvictedTTL != 1 || s.Stats().Entries != 0 {
		t.Errorf("stats = %+v", s.Stats())
	}
}

func TestDefaultTTLIs72Hours(t *testing.T) {
	clk := newClock()
	s := New(Options{Now: clk.now})
	a := atom("c2", sqlparser.OpGt, 5)
	s.Store("b0", a, bm(4, 0), stats(0, 9, 0))
	clk.advance(71 * time.Hour)
	if _, ok := s.Lookup(ctxb, "b0", a, 4); !ok {
		t.Error("71h-old entry should survive the paper's 72h TTL")
	}
	clk.advance(2 * time.Hour)
	if _, ok := s.Lookup(ctxb, "b0", a, 4); ok {
		t.Error("73h-old entry should expire")
	}
}

func TestSweep(t *testing.T) {
	clk := newClock()
	s := New(Options{TTL: time.Hour, Now: clk.now})
	for i := 0; i < 5; i++ {
		s.Store(fmt.Sprintf("b%d", i), atom("c", sqlparser.OpGt, int64(i)), bm(4, 0), stats(0, 9, 0))
	}
	clk.advance(2 * time.Hour)
	s.Store("fresh", atom("c", sqlparser.OpGt, 99), bm(4, 0), stats(0, 9, 0))
	if removed := s.Sweep(); removed != 5 {
		t.Errorf("Sweep = %d, want 5", removed)
	}
	if s.Stats().Entries != 1 {
		t.Errorf("entries = %d", s.Stats().Entries)
	}
}

func TestLRUEvictionUnderBudget(t *testing.T) {
	s := New(Options{MemoryBudget: 2000})
	// Each dense 1024-bit entry is ~128+key+96 bytes; budget fits ~7.
	var atoms []plan.Atom
	for i := 0; i < 12; i++ {
		a := atom("c", sqlparser.OpGt, int64(i))
		atoms = append(atoms, a)
		s.Store("b0", a, bm(1024, i), stats(0, 99, 0))
	}
	st := s.Stats()
	if st.Bytes > 2000 {
		t.Errorf("bytes = %d over budget", st.Bytes)
	}
	if st.EvictedLRU == 0 {
		t.Error("expected LRU evictions")
	}
	// The oldest entries are gone; the newest survive.
	if _, ok := s.Lookup(ctxb, "b0", atoms[0], 1024); ok {
		t.Error("oldest entry should be evicted")
	}
	if _, ok := s.Lookup(ctxb, "b0", atoms[11], 1024); !ok {
		t.Error("newest entry should survive")
	}
}

func TestLRURecencyOrder(t *testing.T) {
	s := New(Options{MemoryBudget: 600}) // fits two ~260-byte dense entries
	a0 := atom("c", sqlparser.OpGt, 0)
	a1 := atom("c", sqlparser.OpGt, 1)
	s.Store("b0", a0, bm(1024, 0), stats(0, 99, 0))
	s.Store("b0", a1, bm(1024, 1), stats(0, 99, 0))
	// Touch a0 so a1 becomes the LRU victim.
	if _, ok := s.Lookup(ctxb, "b0", a0, 1024); !ok {
		t.Fatal("a0 should hit")
	}
	s.Store("b0", atom("c", sqlparser.OpGt, 2), bm(1024, 2), stats(0, 99, 0))
	if _, ok := s.Lookup(ctxb, "b0", a0, 1024); !ok {
		t.Error("recently used entry should survive")
	}
	if _, ok := s.Lookup(ctxb, "b0", a1, 1024); ok {
		t.Error("least recently used entry should be evicted")
	}
}

func TestOversizeEntryRejected(t *testing.T) {
	s := New(Options{MemoryBudget: 64})
	s.Store("b0", atom("c", sqlparser.OpGt, 0), bm(1<<16), stats(0, 99, 0))
	if s.Stats().Entries != 0 {
		t.Error("entry larger than budget must be rejected")
	}
}

func TestPinnedSurviveTTLAndEvictLast(t *testing.T) {
	clk := newClock()
	s := New(Options{TTL: time.Hour, Now: clk.now})
	s.Pin("b0|hot ")
	hot := atom("hot", sqlparser.OpGt, 1)
	cold := atom("cold", sqlparser.OpGt, 1)
	s.Store("b0", hot, bm(4, 0), stats(0, 9, 0))
	s.Store("b0", cold, bm(4, 1), stats(0, 9, 0))
	clk.advance(3 * time.Hour)
	if _, ok := s.Lookup(ctxb, "b0", cold, 4); ok {
		t.Error("unpinned entry should expire")
	}
	if _, ok := s.Lookup(ctxb, "b0", hot, 4); !ok {
		t.Error("pinned entry should survive TTL")
	}
	// Pinning after the fact marks existing entries.
	s2 := New(Options{})
	s2.Store("b0", hot, bm(4, 0), stats(0, 9, 0))
	s2.Pin("b0|hot ")
	for _, e := range flat(t, s2) {
		if !e.pinned {
			t.Error("existing entry should be pinned retroactively")
		}
	}
}

func TestPinnedEvictedUnderPressure(t *testing.T) {
	s := New(Options{MemoryBudget: 600})
	s.Pin("b0|p ")
	s.Store("b0", atom("p", sqlparser.OpGt, 0), bm(1024, 0), stats(0, 9, 0))
	// Fill with more pinned entries: second pass of enforceBudget must
	// still shed them rather than blow the budget.
	s.Store("b0", atom("p", sqlparser.OpGt, 1), bm(1024, 1), stats(0, 9, 0))
	s.Store("b0", atom("p", sqlparser.OpGt, 2), bm(1024, 2), stats(0, 9, 0))
	if s.Stats().Bytes > 600 {
		t.Errorf("budget violated: %d", s.Stats().Bytes)
	}
}

func TestCompressedRoundTrip(t *testing.T) {
	s := New(Options{Compress: true})
	a := atom("c2", sqlparser.OpGt, 5)
	want := bm(1000, 5, 500, 999)
	s.Store("b0", a, want, stats(0, 9, 0))
	got, ok := s.Lookup(ctxb, "b0", a, 1000)
	if !ok || !got.Equal(want) {
		t.Fatalf("compressed lookup mismatch")
	}
	// Compressed sparse entries should be much smaller than dense.
	dense := New(Options{})
	dense.Store("b0", a, want, stats(0, 9, 0))
	if s.Stats().Bytes >= dense.Stats().Bytes {
		t.Errorf("compressed %d >= dense %d", s.Stats().Bytes, dense.Stats().Bytes)
	}
}

func TestInvalidate(t *testing.T) {
	s := New(Options{})
	s.Store("/t1/p0#0", atom("c", sqlparser.OpGt, 1), bm(4, 0), stats(0, 9, 0))
	s.Store("/t1/p0#1", atom("c", sqlparser.OpGt, 1), bm(4, 0), stats(0, 9, 0))
	s.Store("/t2/p0#0", atom("c", sqlparser.OpGt, 1), bm(4, 0), stats(0, 9, 0))
	if n := s.Invalidate("/t1/"); n != 2 {
		t.Errorf("Invalidate = %d", n)
	}
	if s.Stats().Entries != 1 {
		t.Errorf("entries = %d", s.Stats().Entries)
	}
}

func TestStoreReplacesEntry(t *testing.T) {
	s := New(Options{})
	a := atom("c", sqlparser.OpGt, 1)
	s.Store("b0", a, bm(4, 0), stats(0, 9, 0))
	s.Store("b0", a, bm(4, 1, 2), stats(0, 9, 0))
	got, _ := s.Lookup(ctxb, "b0", a, 4)
	if got.Count() != 2 {
		t.Errorf("replacement not effective: %v", got.Selected())
	}
	if s.Stats().Entries != 1 {
		t.Errorf("entries = %d", s.Stats().Entries)
	}
}

func TestResetCounters(t *testing.T) {
	s := New(Options{})
	a := atom("c", sqlparser.OpGt, 1)
	s.Store("b0", a, bm(4, 0), stats(0, 9, 0))
	s.Lookup(ctxb, "b0", a, 4)
	s.ResetCounters()
	st := s.Stats()
	if st.Hits != 0 || st.Stored != 0 {
		t.Errorf("counters not reset: %+v", st)
	}
	if st.Entries != 1 {
		t.Error("entries must survive counter reset")
	}
}

func TestPinAtomAcrossBlocks(t *testing.T) {
	clk := newClock()
	s := New(Options{TTL: time.Hour, Now: clk.now})
	hot := atom("c2", sqlparser.OpGt, 5)
	cold := atom("c2", sqlparser.OpGt, 9)
	s.Store("b0", hot, bm(4, 0), stats(0, 9, 0))
	s.Store("b1", hot, bm(4, 1), stats(0, 9, 0))
	s.Store("b0", cold, bm(4, 2), stats(0, 9, 0))
	s.PinAtom(hot.Key())
	clk.advance(2 * time.Hour)
	if _, ok := s.Lookup(ctxb, "b0", hot, 4); !ok {
		t.Error("pinned atom entry (b0) should survive TTL")
	}
	if _, ok := s.Lookup(ctxb, "b1", hot, 4); !ok {
		t.Error("pinned atom entry (b1) should survive TTL")
	}
	if _, ok := s.Lookup(ctxb, "b0", cold, 4); ok {
		t.Error("unpinned atom should expire")
	}
	// Future stores of the pinned atom are pinned too.
	s.Store("b2", hot, bm(4, 3), stats(0, 9, 0))
	clk.advance(2 * time.Hour)
	if _, ok := s.Lookup(ctxb, "b2", hot, 4); !ok {
		t.Error("new entry for pinned atom should be pinned")
	}
}

func TestUnpinAtom(t *testing.T) {
	clk := newClock()
	s := New(Options{TTL: time.Hour, Now: clk.now})
	hot := atom("c2", sqlparser.OpGt, 5)
	s.PinAtom(hot.Key())
	s.Store("b0", hot, bm(4, 0), stats(0, 9, 0))
	s.UnpinAtom(hot.Key())
	clk.advance(2 * time.Hour)
	if _, ok := s.Lookup(ctxb, "b0", hot, 4); ok {
		t.Error("unpinned entry should expire again")
	}
}

// TestEnforceBudgetIncomingSurvives is the regression for the two-pass
// eviction bug: storing into a full budget must evict older entries — even
// pinned ones — before the entry being stored, never churning it out ahead
// of its first lookup.
func TestEnforceBudgetIncomingSurvives(t *testing.T) {
	s := New(Options{MemoryBudget: 600}) // fits two ~260-byte dense entries
	a0 := atom("c", sqlparser.OpGt, 0)
	a1 := atom("c", sqlparser.OpGt, 1)
	a2 := atom("c", sqlparser.OpGt, 2)
	s.Pin("b0|") // everything resident is pinned: the old first pass found
	// no unpinned victim and the second evicted the just-stored entry
	s.Store("b0", a0, bm(1024, 0), stats(0, 9, 0))
	s.Store("b0", a1, bm(1024, 1), stats(0, 9, 0))
	s.Store("b1", a2, bm(1024, 2), stats(0, 9, 0)) // unpinned incoming
	if _, ok := s.Lookup(ctxb, "b1", a2, 1024); !ok {
		t.Fatal("just-stored entry was evicted while older candidates existed")
	}
	st := s.Stats()
	if st.EvictedLRU == 0 {
		t.Fatalf("expected pinned victims to be shed: %+v", st)
	}
	if st.Bytes > 600 {
		t.Fatalf("budget violated: %+v", st)
	}
}
