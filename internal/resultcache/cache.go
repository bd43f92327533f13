// Package resultcache is the master-side semantic result cache. Completed
// query results are stored under their normalized plan fingerprint (shape)
// plus bound-literal key (exact identity). A lookup serves an exact hit
// directly; for subsumption-eligible selects it may also serve a *wider*
// cached result — e.g. `b > 10` answering `b > 20` — by re-filtering the
// cached rows with the new query's own pushed-down predicate.
//
// An entry records the catalog version (plan.TableMeta.Version) of every
// table its plan read and is served only to a plan bound at the same
// versions; a lookup that finds it older removes it. So an ingest needs no
// call into the cache, and a result stored after its tables were
// re-registered is never served. The cache is bounded by a global byte
// budget with LRU eviction and a TTL. Its ghost list, a second lru.List at
// the same budget, keeps evicted keys at their old sizes, no rows: a miss
// that finds its key there counts a hit a cache twice the size would have
// served, exported as the shadow gauge ("would more memory help").
package resultcache

import (
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/lru"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// Outcome classifies one cache lookup.
type Outcome int

// Lookup outcomes.
const (
	// Miss: nothing served; the query must execute.
	Miss Outcome = iota
	// Hit: exact entry (same shape, same literals) served.
	Hit
	// SubsumedHit: a wider cached entry served after re-filtering.
	SubsumedHit
)

// String names the outcome for stats and trace attributes.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case SubsumedHit:
		return "subsumed"
	default:
		return "miss"
	}
}

// Config sizes the cache.
type Config struct {
	// CapacityBytes is the global budget; <= 0 disables the cache.
	CapacityBytes int64
	// TTL bounds entry age; <= 0 means no TTL.
	TTL time.Duration
	// Now is injectable for tests; nil means time.Now.
	Now func() time.Time
	// Events, when set, journals store/evict/invalidate decisions into the
	// flight recorder under site "rescache" (hit/subsumed events are emitted
	// by the master, which knows the query ID).
	Events *events.Recorder
}

// entry is one cached result. Entries live in three structures at once: the
// byKey exact map, the per-shape slice (subsumption scans), and the global
// LRU list, which charges each its resultBytes.
type entry struct {
	lru.Node[*entry]
	key     string // fingerprint + "\x00" + literalKey
	fp      string
	lits    []types.Value
	slots   []plan.LitSlot
	tables  []boundTable
	res     *exec.Result
	expires time.Time // zero when no TTL
}

// boundTable is a table a plan read, with the catalog version it was bound
// at.
type boundTable struct {
	name    string
	version uint64
}

// ghost is an evicted entry's key, charged its old size — no rows.
type ghost struct {
	lru.Node[*ghost]
	key    string
	tables []boundTable
}

// Cache is safe for concurrent use. All methods are no-ops on a nil
// receiver, so callers need no cache-enabled branches.
type Cache struct {
	cfg Config

	mu     sync.Mutex
	seq    uint64 // the events journaled on the "rescache" site
	byKey  map[string]*entry
	shapes map[string][]*entry
	lru    lru.List[*entry]

	ghosts   map[string]*ghost
	ghostLRU lru.List[*ghost]

	hits, subsumedHits, misses int64
	evictions, invalidations   int64
	expirations, shadowHits    int64
	storeSkips                 int64
}

// New builds a cache; returns nil when the capacity is zero or negative so
// callers can wire the nil-safe disabled form unconditionally.
func New(cfg Config) *Cache {
	if cfg.CapacityBytes <= 0 {
		return nil
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Cache{
		cfg:    cfg,
		byKey:  make(map[string]*entry),
		shapes: make(map[string][]*entry),
		ghosts: make(map[string]*ghost),
	}
}

func entryKey(p *plan.PhysicalPlan) string {
	return p.Fingerprint + "\x00" + p.LiteralKey
}

// Lookup serves the query from cache if possible: only an entry stored at
// the catalog versions the plan was bound at. An exact entry from an older
// version is removed and counted in Invalidations. The returned result is a
// deep copy the caller owns. Results are shared across tenants (the master
// authorizes the query against the catalog before it ever consults the
// cache).
func (c *Cache) Lookup(p *plan.PhysicalPlan) (*exec.Result, Outcome) {
	if c == nil || p == nil {
		return nil, Miss
	}
	key := entryKey(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.cfg.Now()

	if e, ok := c.byKey[key]; ok {
		switch age := compareVersions(e.tables, p); {
		case c.expiredLocked(e, t):
			c.removeLocked(e, &c.expirations)
		case age < 0:
			c.removeLocked(e, &c.invalidations)
			c.journalLocked(events.CacheInvalidate, e.fp)
		case age == 0:
			c.lru.Touch(e)
			c.hits++
			return e.res.Clone(), Hit
		}
	}

	// Subsumption: scan the shape's entries for one whose predicate this
	// query implies, then re-filter its rows with this query's own filter.
	if filter, ok := p.ReuseFilter(); ok {
		for _, e := range c.shapes[p.Fingerprint] {
			if c.expiredLocked(e, t) || compareVersions(e.tables, p) != 0 {
				continue // removed lazily by the next exact lookup or sweep
			}
			if !implies(e.slots, p.Literals, e.lits) {
				continue
			}
			c.lru.Touch(e)
			c.subsumedHits++
			out := &exec.Result{
				Columns:        append([]string(nil), e.res.Columns...),
				Types:          append([]types.Type(nil), e.res.Types...),
				ProcessedRatio: e.res.ProcessedRatio,
			}
			for _, row := range e.res.Rows {
				if filter.Match(row) {
					cp := make([]types.Value, len(row))
					copy(cp, row)
					out.Rows = append(out.Rows, cp)
				}
			}
			return out, SubsumedHit
		}
	}

	c.misses++
	if g, ok := c.ghosts[key]; ok {
		if compareVersions(g.tables, p) == 0 {
			// A cache with twice the budget would (likely) still hold this.
			c.shadowHits++
		}
		c.removeGhostLocked(g)
	}
	return nil, Miss
}

// Store caches a completed result under the plan's identity and the catalog
// versions it was bound at. The result is deep-copied, strings included, so
// the entry pins just the bytes resultBytes charges for; partial or truncated
// results must not be stored (the master gates on that). A result too big
// for the budget, or older than the entry it would replace, is refused and
// counted in StoreSkips. tenant is unused: results are shared across
// tenants.
func (c *Cache) Store(p *plan.PhysicalPlan, tenant string, res *exec.Result) {
	if c == nil || p == nil || res == nil {
		return
	}
	size := resultBytes(res)
	if size > c.cfg.CapacityBytes {
		c.mu.Lock()
		c.storeSkips++
		c.mu.Unlock()
		return
	}
	e := &entry{
		key:    entryKey(p),
		fp:     p.Fingerprint,
		lits:   append([]types.Value(nil), p.Literals...),
		slots:  append([]plan.LitSlot(nil), p.ReuseSlots...),
		tables: planTables(p),
		res:    res.Own(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.byKey[e.key]; ok {
		if compareVersions(old.tables, p) > 0 {
			c.storeSkips++
			return
		}
		c.removeLocked(old, nil)
	}
	if c.cfg.TTL > 0 {
		e.expires = c.cfg.Now().Add(c.cfg.TTL)
	}
	if g, ok := c.ghosts[e.key]; ok {
		c.removeGhostLocked(g)
	}
	c.byKey[e.key] = e
	c.shapes[e.fp] = append(c.shapes[e.fp], e)
	c.lru.PushFront(e, size)
	for c.lru.Bytes() > c.cfg.CapacityBytes {
		c.evictLocked(c.lru.Oldest())
	}
	if c.cfg.Events.Enabled() {
		c.journalLocked(events.CacheStore, e.fp+" bytes="+strconv.FormatInt(size, 10))
	}
}

// journalLocked records one event on the cache's site, which the cache
// numbers. Caller holds c.mu.
func (c *Cache) journalLocked(kind events.Kind, detail string) {
	if c.cfg.Events.Enabled() {
		c.seq++
		c.cfg.Events.Emit("rescache", c.seq, kind, "", -1, detail)
	}
}

// InvalidateTable drops every entry (and ghost) whose query read the table.
// The engine does not call it — a re-registered table's entries are retired
// by their versions on lookup — but the benchmark's replay does.
func (c *Cache) InvalidateTable(table string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for e := c.lru.Oldest(); e != nil; {
		next := c.lru.Newer(e)
		if reads(e.tables, table) {
			c.removeLocked(e, &c.invalidations)
			dropped++
		}
		e = next
	}
	if dropped > 0 && c.cfg.Events.Enabled() {
		c.journalLocked(events.CacheInvalidate, table+" entries="+strconv.Itoa(dropped))
	}
	for g := c.ghostLRU.Oldest(); g != nil; {
		next := c.ghostLRU.Newer(g)
		if reads(g.tables, table) {
			c.removeGhostLocked(g)
		}
		g = next
	}
}

// Stats is a snapshot of the cache's counters and occupancy.
type Stats struct {
	Hits, SubsumedHits, Misses int64
	Evictions, Invalidations   int64
	Expirations, ShadowHits    int64
	StoreSkips                 int64
	Bytes, GhostBytes          int64
	Entries, Ghosts            int
}

// Snapshot returns current counters.
func (c *Cache) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, SubsumedHits: c.subsumedHits, Misses: c.misses,
		Evictions: c.evictions, Invalidations: c.invalidations,
		Expirations: c.expirations, ShadowHits: c.shadowHits,
		StoreSkips: c.storeSkips,
		Bytes:      c.lru.Bytes(), GhostBytes: c.ghostLRU.Bytes(),
		Entries: c.lru.Len(), Ghosts: c.ghostLRU.Len(),
	}
}

// ShadowHitRatio estimates the hit ratio a cache at twice the byte budget
// would reach: (real hits + ghost hits) / lookups. Returns 0 with no
// lookups yet.
func (c *Cache) ShadowHitRatio() float64 {
	s := c.Snapshot()
	total := s.Hits + s.SubsumedHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.SubsumedHits+s.ShadowHits) / float64(total)
}

// HitRatio is the real hit ratio (exact + subsumed over lookups).
func (c *Cache) HitRatio() float64 {
	s := c.Snapshot()
	total := s.Hits + s.SubsumedHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.SubsumedHits) / float64(total)
}

// ---- internals (all require c.mu) ----

func (c *Cache) expiredLocked(e *entry, t time.Time) bool {
	return !e.expires.IsZero() && t.After(e.expires)
}

// removeLocked detaches the entry from every structure; counter (when non
// nil) is incremented. No ghost is left behind — use evictLocked for
// capacity evictions that should feed the shadow gauge.
func (c *Cache) removeLocked(e *entry, counter *int64) {
	c.lru.Remove(e)
	delete(c.byKey, e.key)
	c.dropShapeLocked(e)
	if counter != nil {
		*counter++
	}
}

// evictLocked removes for capacity and records a ghost.
func (c *Cache) evictLocked(e *entry) {
	c.removeLocked(e, &c.evictions)
	c.journalLocked(events.CacheEvict, e.fp)
	g := &ghost{key: e.key, tables: e.tables}
	c.ghosts[g.key] = g
	c.ghostLRU.PushFront(g, e.Size())
	// Ghost budget equals the main budget: main + ghost together model a
	// cache at 2x capacity.
	for c.ghostLRU.Bytes() > c.cfg.CapacityBytes {
		c.removeGhostLocked(c.ghostLRU.Oldest())
	}
}

func (c *Cache) removeGhostLocked(g *ghost) {
	c.ghostLRU.Remove(g)
	delete(c.ghosts, g.key)
}

func (c *Cache) dropShapeLocked(e *entry) {
	list := c.shapes[e.fp]
	for i, x := range list {
		if x == e {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(c.shapes, e.fp)
	} else {
		c.shapes[e.fp] = list
	}
}

// implies reports whether the new literal vector's predicate implies the
// cached one under the shared slot classification — i.e. every row the new
// query accepts, the cached query accepted too.
func implies(slots []plan.LitSlot, newLits, oldLits []types.Value) bool {
	if len(newLits) != len(oldLits) || len(slots) != len(newLits) {
		return false
	}
	for i, s := range slots {
		nv, ov := newLits[i], oldLits[i]
		if !s.Flexible {
			if !types.Equal(nv, ov) || nv.T != ov.T {
				return false
			}
			continue
		}
		switch s.Op {
		case sqlparser.OpGt, sqlparser.OpGe:
			cmp, err := types.Compare(nv, ov)
			if err != nil || cmp < 0 {
				return false
			}
		case sqlparser.OpLt, sqlparser.OpLe:
			cmp, err := types.Compare(nv, ov)
			if err != nil || cmp > 0 {
				return false
			}
		case sqlparser.OpContains:
			// new CONTAINS "abc" implies cached CONTAINS "b".
			if nv.T != types.String || ov.T != types.String || !strings.Contains(nv.S, ov.S) {
				return false
			}
		default:
			// Eq, Ne and anything unexpected: exact match only.
			if !types.Equal(nv, ov) || nv.T != ov.T {
				return false
			}
		}
	}
	return true
}

// planTables names every table the plan reads — the fact table, broadcast
// dimensions and a repartitioned build side alike — with the catalog version
// it was bound at.
func planTables(p *plan.PhysicalPlan) []boundTable {
	tables := make([]boundTable, len(p.A.Tables))
	for i, bt := range p.A.Tables {
		tables[i] = boundTable{bt.Meta.Name, bt.Meta.Version}
	}
	return tables
}

// compareVersions compares the versions an entry recorded with those plan p
// (same statement shape, so the same tables) was bound at: 0 when all are
// equal; -1 when the entry is older in some table, so the catalog has
// re-registered that table since; +1 when it is only newer.
func compareVersions(tables []boundTable, p *plan.PhysicalPlan) int {
	cmp := 0
	for i, bt := range p.A.Tables {
		switch {
		case tables[i].version < bt.Meta.Version:
			return -1
		case tables[i].version > bt.Meta.Version:
			cmp = 1
		}
	}
	return cmp
}

// resultBytes estimates the in-memory footprint of a result.
func resultBytes(r *exec.Result) int64 {
	const valueOverhead = 48 // tagged-union Value + slice bookkeeping
	size := int64(64)
	for _, col := range r.Columns {
		size += int64(len(col)) + 16
	}
	for _, row := range r.Rows {
		size += 24
		for _, v := range row {
			size += valueOverhead + int64(len(v.S))
		}
	}
	return size
}

func reads(tables []boundTable, name string) bool {
	for _, t := range tables {
		if t.name == name {
			return true
		}
	}
	return false
}
