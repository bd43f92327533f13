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
	"slices"
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
// exec.IndexSource. The index is two-level: block id → that block's entries
// by positive-form atom key, so a probe hashes two short strings and
// whatever works on one block or one partition visits blocks, not entries.
type SmartIndex struct {
	opt Options

	mu       sync.Mutex
	blocks   map[string]*block
	entries  int64
	lru      *list.List // front = most recent
	bytes    int64
	pins     []string        // pinned "<block id>|<atom key>" prefixes (user preferences)
	pinAtoms map[string]bool // pinned atom keys, any block

	hits, derived, misses metrics.Counter
	stored, evLRU, evTTL  metrics.Counter
}

// block holds one data block's entries. byCol lists them per column: the
// candidates whose range metadata may answer another atom on that column.
type block struct {
	id    string
	byKey map[string]*entry
	byCol map[string][]*entry
}

// entry is one cached predicate-evaluation result, held dense or — with
// Options.Compress — in RLE form.
type entry struct {
	blk     *block
	key     string // positive-form atom key
	col     string
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
	return &SmartIndex{opt: opt, blocks: make(map[string]*block), lru: list.New(), pinAtoms: make(map[string]bool)}
}

// atomPrefix matches prefix against the entry keys "<id>|<atom key>" of one
// block: ok reports whether any can match, rest is the prefix their atom
// keys must then carry ("" when the block id alone decides).
func atomPrefix(id, prefix string) (rest string, ok bool) {
	if len(prefix) <= len(id) {
		return "", strings.HasPrefix(id, prefix)
	}
	if !strings.HasPrefix(prefix, id) || prefix[len(id)] != '|' {
		return "", false
	}
	return prefix[len(id)+1:], true
}

// eachWithPrefix calls f for every entry whose key starts with prefix.
// Caller holds mu; f may drop the entry it is handed.
func (s *SmartIndex) eachWithPrefix(prefix string, f func(*entry)) {
	for _, b := range s.blocks {
		rest, ok := atomPrefix(b.id, prefix)
		if !ok {
			continue
		}
		for k, e := range b.byKey {
			if strings.HasPrefix(k, rest) {
				f(e)
			}
		}
	}
}

// Pin registers a key-prefix preference: matching entries survive TTL
// expiry while memory lasts and are evicted last (paper §IV-C2: "interfaces
// for users to set preferences and retire strategies on indices").
func (s *SmartIndex) Pin(prefix string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pins = append(s.pins, prefix)
	s.eachWithPrefix(prefix, func(e *entry) { e.pinned = true })
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
	for _, b := range s.blocks {
		if e := b.byKey[atomKey]; e != nil {
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
	for _, b := range s.blocks {
		if e := b.byKey[atomKey]; e != nil {
			e.pinned = s.prefixPinned(b.id, atomKey)
		}
	}
}

// prefixPinned reports whether a block's atom key matches a prefix pin.
// Caller holds mu.
func (s *SmartIndex) prefixPinned(blockID, atomKey string) bool {
	for _, p := range s.pins {
		if rest, ok := atomPrefix(blockID, p); ok && strings.HasPrefix(atomKey, rest) {
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
	b := s.blocks[blockID]
	if b == nil {
		s.misses.Inc()
		return nil, false
	}
	now := s.opt.Now()
	// The probe key is rendered on the stack: a lookup allocates nothing.
	var buf [64]byte
	e := b.byKey[string(a.AppendKey(buf[:0]))]

	// A negated atom shares its positive form's entry (Key ignores Negated).
	if a.Negated {
		if bm, ok := s.fetchNegation(e, n, now); ok {
			return bm, s.derivedHit(ctx, n)
		}
		s.misses.Inc()
		return nil, false
	}

	if bm, ok := s.fetch(e, n, now); ok {
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
		ca := plan.Atom{Col: a.Col, Op: comp, Val: a.Val}
		if bm, ok := s.fetchNegation(b.byKey[string(ca.AppendKey(buf[:0]))], n, now); ok {
			return bm, s.derivedHit(ctx, n)
		}
	}
	// Range metadata: any cached entry for the same block+column carries
	// the column's min/max; if they prove the atom all-true, answer
	// without a stored vector.
	if bm, ok := s.rangeAnswer(b, a, n, now); ok {
		return bm, s.derivedHit(ctx, n)
	}
	s.misses.Inc()
	return nil, false
}

// derivedHit accounts for an answer derived from another entry.
func (s *SmartIndex) derivedHit(ctx context.Context, n int) bool {
	s.derived.Inc()
	trace.FromContext(ctx).Count("index.derived", 1)
	s.chargeLookup(ctx, n)
	return true
}

// fetchNegation answers NOT(e's atom) by bit-NOT over the stored vector
// when that is sound (NULL-free column). Caller holds s.mu.
func (s *SmartIndex) fetchNegation(e *entry, n int, now time.Time) (*bitmap.Bitmap, bool) {
	if e != nil && e.stats.NullCount > 0 {
		return nil, false
	}
	bm, ok := s.fetch(e, n, now)
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
// RLE), refreshing recency; e is nil when the probe found none. Caller
// holds s.mu.
func (s *SmartIndex) fetch(e *entry, n int, now time.Time) (*bitmap.Bitmap, bool) {
	if e == nil {
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
func (s *SmartIndex) rangeAnswer(b *block, a plan.Atom, n int, now time.Time) (*bitmap.Bitmap, bool) {
	if a.Negated || a.Op == sqlparser.OpContains || a.Op == sqlparser.OpNe {
		return nil, false
	}
	for _, e := range b.byCol[a.Col] {
		if s.expired(e, now) || e.numRows != n {
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
	atomKey := a.Key()
	now := s.opt.Now()
	b := s.blocks[blockID]
	if b != nil {
		if old := b.byKey[atomKey]; old != nil {
			s.drop(old)
		}
	}
	e := &entry{key: atomKey, col: a.Col, numRows: bm.Len(), stats: stats, created: now}
	// An entry is charged for its vector, its "<block id>|<atom key>"
	// identity and a fixed overhead.
	overhead := int64(len(blockID) + 1 + len(atomKey) + 96)
	if s.opt.Compress {
		e.packed = bitmap.Compress(bm)
		e.size = int64(e.packed.SizeBytes()) + overhead
	} else {
		e.dense = bm.Clone()
		e.size = int64(e.dense.SizeBytes()) + overhead
	}
	e.pinned = s.prefixPinned(blockID, atomKey) || s.pinAtoms[atomKey]
	// Never admit an entry bigger than the whole budget.
	if s.opt.MemoryBudget > 0 && e.size > s.opt.MemoryBudget {
		return
	}
	if b == nil {
		b = &block{id: blockID, byKey: make(map[string]*entry), byCol: make(map[string][]*entry)}
	}
	s.blocks[blockID] = b // new, or unfiled by the drop above when old was its only entry
	e.blk = b
	b.byKey[atomKey] = e
	b.byCol[e.col] = append(b.byCol[e.col], e)
	e.elem = s.lru.PushFront(e)
	s.entries++
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
	for _, b := range s.blocks {
		for _, e := range b.byKey {
			if s.expired(e, now) {
				s.drop(e)
				s.evTTL.Inc()
				removed++
			}
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

// drop removes an entry, and its block with the last one. Caller holds s.mu.
func (s *SmartIndex) drop(e *entry) {
	b := e.blk
	delete(b.byKey, e.key)
	b.byCol[e.col] = slices.DeleteFunc(b.byCol[e.col], func(x *entry) bool { return x == e })
	if len(b.byKey) == 0 {
		delete(s.blocks, b.id)
	}
	if e.elem != nil {
		s.lru.Remove(e.elem)
		e.elem = nil
	}
	s.entries--
	s.bytes -= e.size
}

// Invalidate removes every entry whose block id starts with prefix (data
// refresh for a partition or table).
func (s *SmartIndex) Invalidate(prefix string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	s.eachWithPrefix(prefix, func(e *entry) {
		s.drop(e)
		removed++
	})
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
		Entries:     s.entries,
	}
}

// IndexLoad reports the index's heartbeat gauges: cached bitmap count and
// memory bytes vs. budget. It implements cluster.IndexLoadReporter without
// importing the cluster package.
func (s *SmartIndex) IndexLoad() (entries, bytes, budget int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries, s.bytes, s.opt.MemoryBudget
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
