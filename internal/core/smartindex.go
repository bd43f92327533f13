// Package core implements SmartIndex, the paper's primary contribution
// (§IV-C): an adaptive index that caches the evaluation result of each query
// predicate over each data block as a 0-1 vector in leaf-server memory.
// Later queries that reuse a predicate (the query-similarity pattern of
// §IV-A) skip both the data scan and the predicate evaluation; composed
// predicates are answered by bit operations over cached vectors (Fig. 7).
//
// Entries follow the paper's index schema (Fig. 6): block id, the
// op/colname/colvalue condition key, a compression flag, and range metadata.
// Management follows §IV-C2: a memory budget with LRU eviction, a
// time-to-live (72 h by default), and user preferences that can pin entries
// past their TTL while memory lasts.
package core

import (
	"container/list"
	"context"
	"strings"
	"sync"
	"time"

	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/types"
)

// DefaultTTL is the paper's index time-to-live ("set to 72 hours based on
// our experiences").
const DefaultTTL = 72 * time.Hour

// Options configure a SmartIndex manager.
type Options struct {
	// MemoryBudget caps resident index bytes; <=0 means unlimited.
	MemoryBudget int64
	// TTL evicts entries older than this; <=0 uses DefaultTTL.
	TTL time.Duration
	// Compress parks entries in RLE form (the paper: "Feisu can compress
	// the index to improve memory efficiency").
	Compress bool
	// DisableDerivation turns off complement/range derived answers
	// (ablation of the Fig. 7 rewriting).
	DisableDerivation bool
	// Model prices index lookups as in-memory reads; nil disables cost
	// accounting.
	Model *sim.CostModel
	// Now is the clock (tests inject a fake one).
	Now func() time.Time
}

// Stats reports the manager's counters.
type Stats struct {
	Hits        int64 // exact-entry hits
	DerivedHits int64 // answered via complement entry, negation, or range metadata
	Misses      int64
	Stored      int64
	EvictedLRU  int64
	EvictedTTL  int64
	Bytes       int64
	Entries     int64
}

// SmartIndex is a leaf server's index manager. It implements
// exec.IndexSource.
type SmartIndex struct {
	opt Options

	mu       sync.Mutex
	entries  map[string]*entry
	lru      *list.List // front = most recent
	bytes    int64
	pins     []string        // pinned key prefixes (user preferences)
	pinAtoms map[string]bool // pinned atom keys, any block

	hits, derived, misses metrics.Counter
	stored, evLRU, evTTL  metrics.Counter
}

// entry is one cached predicate-evaluation result, held dense or — with
// Options.Compress — in RLE form.
type entry struct {
	key     string // blockID + "|" + positive-form atom key
	dense   *bitmap.Bitmap
	packed  *bitmap.Compressed
	numRows int
	// stats is the column's block-level range metadata ("range" in the
	// paper's index schema) used for derived answers.
	stats   colstore.Stats
	created time.Time
	size    int64
	elem    *list.Element
	pinned  bool
}

// New returns a SmartIndex with the given options.
func New(opt Options) *SmartIndex {
	if opt.TTL <= 0 {
		opt.TTL = DefaultTTL
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	return &SmartIndex{opt: opt, entries: make(map[string]*entry), lru: list.New(), pinAtoms: make(map[string]bool)}
}

// key is the entry key of the atom's positive form: a negated atom shares
// its positive entry and is answered by bit-NOT.
func key(blockID string, a plan.Atom) string {
	return blockID + "|" + positiveKey(a)
}

func positiveKey(a plan.Atom) string {
	a.Negated = false
	return a.Key()
}

// Pin registers a key-prefix preference: matching entries survive TTL
// expiry while memory lasts and are evicted last (paper §IV-C2: "interfaces
// for users to set preferences and retire strategies on indices").
func (s *SmartIndex) Pin(prefix string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pins = append(s.pins, prefix)
	for _, e := range s.entries {
		if strings.HasPrefix(e.key, prefix) {
			e.pinned = true
		}
	}
}

// PinAtom pins every current and future entry for the predicate atom
// across all blocks — the private-index personalization driven by
// client-side query-history collection (paper §III-C: "collection on the
// client side is used for SmartIndex to build private index for specific
// users or user groups").
func (s *SmartIndex) PinAtom(atomKey string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pinAtoms[atomKey] = true
	suffix := "|" + atomKey
	for _, e := range s.entries {
		if strings.HasSuffix(e.key, suffix) {
			e.pinned = true
		}
	}
}

// UnpinAtom removes an atom preference; existing entries fall back to
// normal LRU/TTL management.
func (s *SmartIndex) UnpinAtom(atomKey string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pinAtoms, atomKey)
	suffix := "|" + atomKey
	for _, e := range s.entries {
		if strings.HasSuffix(e.key, suffix) {
			e.pinned = s.prefixPinned(e.key)
		}
	}
}

// prefixPinned reports whether a key matches a prefix pin. Caller holds mu.
func (s *SmartIndex) prefixPinned(key string) bool {
	for _, p := range s.pins {
		if strings.HasPrefix(key, p) {
			return true
		}
	}
	return false
}

// Lookup implements exec.IndexSource. The returned bitmap is owned by the
// index and must not be mutated by the caller. It answers from an exact
// entry, from a complementary entry via bit-NOT (Fig. 7), or from range
// metadata when the stored stats prove an all-true result. A negated atom
// (NOT CONTAINS) is served by bit-NOT of its positive entry. Every bit-NOT
// derivation requires the block's column to be NULL-free: NULL rows
// satisfy neither a predicate nor its complement, so inverting a vector
// over a column with NULLs would wrongly select them — the stored range
// metadata carries the null count that gates this.
func (s *SmartIndex) Lookup(ctx context.Context, blockID string, a plan.Atom, n int) (*bitmap.Bitmap, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opt.Now()

	if a.Negated {
		if bm, ok := s.fetchNegation(key(blockID, a), n, now); ok {
			s.derived.Inc()
			trace.FromContext(ctx).Count("index.derived", 1)
			s.chargeLookup(ctx, n)
			return bm, true
		}
		s.misses.Inc()
		return nil, false
	}

	if bm, ok := s.fetch(key(blockID, a), n, now); ok {
		s.hits.Inc()
		s.chargeLookup(ctx, n)
		return bm, true
	}
	if s.opt.DisableDerivation {
		s.misses.Inc()
		return nil, false
	}
	// Complement derivation: an entry for the negated comparison answers
	// this atom via bit-NOT (e.g. cached "c > 5" serves "c <= 5").
	if comp, invertible := a.Op.Negate(); invertible {
		ca := a
		ca.Op = comp
		if bm, ok := s.fetchNegation(key(blockID, ca), n, now); ok {
			s.derived.Inc()
			trace.FromContext(ctx).Count("index.derived", 1)
			s.chargeLookup(ctx, n)
			return bm, true
		}
	}
	// Range metadata: any cached entry for the same block+column carries
	// the column's min/max; if they prove the atom all-true, answer
	// without a stored vector.
	if bm, ok := s.rangeAnswer(blockID, a, n, now); ok {
		s.derived.Inc()
		trace.FromContext(ctx).Count("index.derived", 1)
		s.chargeLookup(ctx, n)
		return bm, true
	}
	s.misses.Inc()
	return nil, false
}

// fetchNegation answers NOT(atom at key k) by bit-NOT over the stored
// vector when that is sound (NULL-free column). Caller holds s.mu.
func (s *SmartIndex) fetchNegation(k string, n int, now time.Time) (*bitmap.Bitmap, bool) {
	if e, ok := s.entries[k]; ok && e.stats.NullCount > 0 {
		return nil, false
	}
	bm, ok := s.fetch(k, n, now)
	if !ok {
		return nil, false
	}
	neg := bm.Clone()
	neg.Not()
	return neg, true
}

// chargeLookup bills an index hit as an in-memory bitmap read.
func (s *SmartIndex) chargeLookup(ctx context.Context, n int) {
	if s.opt.Model == nil {
		return
	}
	if b := storage.BillFrom(ctx); b != nil {
		b.ChargeRead(s.opt.Model, sim.DeviceMemory, int64(n/8+1))
	}
}

// fetch returns a live entry's dense bitmap (decompressing if parked in
// RLE), refreshing recency. Caller holds s.mu.
func (s *SmartIndex) fetch(k string, n int, now time.Time) (*bitmap.Bitmap, bool) {
	e, ok := s.entries[k]
	if !ok {
		return nil, false
	}
	if s.expired(e, now) {
		s.drop(e)
		s.evTTL.Inc()
		return nil, false
	}
	if e.numRows != n {
		// Data changed shape under the same path; invalidate.
		s.drop(e)
		return nil, false
	}
	s.lru.MoveToFront(e.elem)
	if e.dense != nil {
		return e.dense, true
	}
	dense, err := e.packed.Decompress()
	if err != nil {
		s.drop(e)
		return nil, false
	}
	return dense, true
}

// rangeAnswer scans the block+column's entries for range metadata proving
// the atom matches all rows (min/max within the predicate and no NULLs).
// The all-false case is already handled by the executor's stats pruning.
func (s *SmartIndex) rangeAnswer(blockID string, a plan.Atom, n int, now time.Time) (*bitmap.Bitmap, bool) {
	if a.Negated || a.Op == sqlparser.OpContains || a.Op == sqlparser.OpNe {
		return nil, false
	}
	prefix := blockID + "|" + a.Col + " "
	for k, e := range s.entries {
		if !strings.HasPrefix(k, prefix) || s.expired(e, now) || e.numRows != n {
			continue
		}
		if e.stats.NullCount > 0 || e.stats.Min.IsNull() {
			continue
		}
		if atomAlwaysTrue(a, e.stats) {
			return bitmap.NewFull(n), true
		}
	}
	return nil, false
}

// atomAlwaysTrue reports whether stats prove every non-null row satisfies
// the atom (and NullCount is zero, checked by the caller).
func atomAlwaysTrue(a plan.Atom, st colstore.Stats) bool {
	cmpMin, errMin := types.Compare(a.Val, st.Min)
	cmpMax, errMax := types.Compare(a.Val, st.Max)
	if errMin != nil || errMax != nil {
		return false
	}
	switch a.Op {
	case sqlparser.OpGt:
		return cmpMin < 0 // val < min: all rows above val
	case sqlparser.OpGe:
		return cmpMin <= 0
	case sqlparser.OpLt:
		return cmpMax > 0
	case sqlparser.OpLe:
		return cmpMax >= 0
	case sqlparser.OpEq:
		return cmpMin == 0 && cmpMax == 0 // constant column equal to val
	default:
		return false
	}
}

// Store implements exec.IndexSource: it caches the positive-form result for
// the (block, atom) pair.
func (s *SmartIndex) Store(blockID string, a plan.Atom, bm *bitmap.Bitmap, stats colstore.Stats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	atomKey := positiveKey(a)
	k := blockID + "|" + atomKey
	now := s.opt.Now()
	if old, ok := s.entries[k]; ok {
		s.drop(old)
	}
	e := &entry{key: k, numRows: bm.Len(), stats: stats, created: now}
	if s.opt.Compress {
		e.packed = bitmap.Compress(bm)
		e.size = int64(e.packed.SizeBytes() + len(k) + 96)
	} else {
		e.dense = bm.Clone()
		e.size = int64(e.dense.SizeBytes() + len(k) + 96)
	}
	e.pinned = s.prefixPinned(k) || s.pinAtoms[atomKey]
	// Never admit an entry bigger than the whole budget.
	if s.opt.MemoryBudget > 0 && e.size > s.opt.MemoryBudget {
		return
	}
	e.elem = s.lru.PushFront(e)
	s.entries[k] = e
	s.bytes += e.size
	s.stored.Inc()
	s.enforceBudget(e)
}

// enforceBudget evicts least-recently-used entries until the budget holds:
// unpinned first, then pinned, never the entry just stored (incoming) — a
// store under a full budget must not churn out its own entry before its
// first lookup. incoming alone always fits: Store rejects an entry larger
// than the whole budget. Caller holds s.mu.
func (s *SmartIndex) enforceBudget(incoming *entry) {
	if s.opt.MemoryBudget <= 0 {
		return
	}
	for _, allowPinned := range []bool{false, true} {
		for el := s.lru.Back(); el != nil && s.bytes > s.opt.MemoryBudget; {
			prev := el.Prev()
			if e := el.Value.(*entry); e != incoming && (allowPinned || !e.pinned) {
				s.drop(e)
				s.evLRU.Inc()
			}
			el = prev
		}
	}
}

// Sweep removes expired entries eagerly; the leaf runs it periodically.
func (s *SmartIndex) Sweep() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opt.Now()
	removed := 0
	for _, e := range s.entries {
		if s.expired(e, now) {
			s.drop(e)
			s.evTTL.Inc()
			removed++
		}
	}
	return removed
}

// expired applies the TTL; pinned entries never expire by time (paper:
// "indices with preferences can remain in the memory when their TTL expire
// if the cache memory is not full").
func (s *SmartIndex) expired(e *entry, now time.Time) bool {
	return !e.pinned && now.Sub(e.created) > s.opt.TTL
}

// drop removes an entry. Caller holds s.mu.
func (s *SmartIndex) drop(e *entry) {
	delete(s.entries, e.key)
	if e.elem != nil {
		s.lru.Remove(e.elem)
		e.elem = nil
	}
	s.bytes -= e.size
}

// Invalidate removes every entry whose block id starts with prefix (data
// refresh for a partition or table).
func (s *SmartIndex) Invalidate(prefix string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for k, e := range s.entries {
		if strings.HasPrefix(k, prefix) {
			s.drop(e)
			removed++
		}
	}
	return removed
}

// Stats returns a snapshot of the counters.
func (s *SmartIndex) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:        s.hits.Value(),
		DerivedHits: s.derived.Value(),
		Misses:      s.misses.Value(),
		Stored:      s.stored.Value(),
		EvictedLRU:  s.evLRU.Value(),
		EvictedTTL:  s.evTTL.Value(),
		Bytes:       s.bytes,
		Entries:     int64(len(s.entries)),
	}
}

// IndexLoad reports the index's heartbeat gauges: cached bitmap count and
// memory bytes vs. budget. It implements cluster.IndexLoadReporter without
// importing the cluster package.
func (s *SmartIndex) IndexLoad() (entries, bytes, budget int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.entries)), s.bytes, s.opt.MemoryBudget
}

// RegisterMetrics publishes the index's counters into a central registry
// under the given name prefix (e.g. "leaf0.index.").
func (s *SmartIndex) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.Register(prefix+"hits", &s.hits)
	reg.Register(prefix+"derived", &s.derived)
	reg.Register(prefix+"misses", &s.misses)
	reg.Register(prefix+"stored", &s.stored)
	reg.Register(prefix+"evicted_lru", &s.evLRU)
	reg.Register(prefix+"evicted_ttl", &s.evTTL)
}

// ResetCounters zeroes hit/miss counters (between benchmark phases) while
// keeping cached entries.
func (s *SmartIndex) ResetCounters() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hits = metrics.Counter{}
	s.derived = metrics.Counter{}
	s.misses = metrics.Counter{}
	s.stored = metrics.Counter{}
	s.evLRU = metrics.Counter{}
	s.evTTL = metrics.Counter{}
}
