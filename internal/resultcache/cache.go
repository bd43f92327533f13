// Package resultcache is the master-side semantic result cache. Completed
// query results are stored under their normalized plan fingerprint (shape)
// plus bound-literal key (exact identity). A lookup serves an exact hit
// directly; for subsumption-eligible selects it may also serve a *wider*
// cached result — e.g. `b > 10` answering `b > 20` — by re-filtering the
// cached rows with the new query's own pushed-down predicate.
//
// The cache is bounded by a global byte budget with LRU eviction, per-tenant
// byte quotas (extending the admission controller's multi-tenant story:
// one tenant's bulky results cannot evict the whole fleet's working set),
// a TTL, and table-level invalidation driven by ingest. A ghost list of
// recently evicted keys — same byte budget, keys only — counts the hits a
// cache twice the size would have served, exported as the shadow gauge so
// /metrics answers "would more memory help".
package resultcache

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/events"
	"repro/internal/exec"
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
	// TenantBytes caps any one tenant's share of the budget; <= 0 means
	// no per-tenant cap.
	TenantBytes int64
	// Now is injectable for tests; nil means time.Now.
	Now func() time.Time
	// Events, when set, journals store/evict/invalidate decisions into the
	// flight recorder under site "rescache" (hit/subsumed events are emitted
	// by the master, which knows the query ID).
	Events *events.Recorder
}

// entry is one cached result. Entries live in three structures at once: the
// byKey exact map, the per-shape slice (subsumption scans), and the global
// LRU list.
type entry struct {
	key     string // fingerprint + "\x00" + literalKey
	fp      string
	litKey  string
	lits    []types.Value
	slots   []plan.LitSlot
	tables  []string
	tenant  string
	res     *exec.Result
	bytes   int64
	expires time.Time // zero when no TTL

	prev, next *entry
}

// ghost is an evicted entry's key with its old size — no rows.
type ghost struct {
	key        string
	tables     []string
	bytes      int64
	prev, next *ghost
}

// Cache is safe for concurrent use. All methods are no-ops on a nil
// receiver, so callers need no cache-enabled branches.
type Cache struct {
	cfg Config

	mu          sync.Mutex
	byKey       map[string]*entry
	shapes      map[string][]*entry
	head, tail  *entry // LRU: head = most recent
	bytes       int64
	tenantBytes map[string]int64

	ghosts               map[string]*ghost
	ghostHead, ghostTail *ghost
	ghostBytes           int64

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
		cfg:         cfg,
		byKey:       make(map[string]*entry),
		shapes:      make(map[string][]*entry),
		tenantBytes: make(map[string]int64),
		ghosts:      make(map[string]*ghost),
	}
}

func entryKey(p *plan.PhysicalPlan) string {
	return p.Fingerprint + "\x00" + p.LiteralKey
}

// Lookup serves the query from cache if possible. The returned result is a
// deep copy the caller owns. Results are shared across tenants: quotas are
// write-side attribution, not read isolation (the master authorizes the
// query against the catalog before it ever consults the cache).
func (c *Cache) Lookup(p *plan.PhysicalPlan) (*exec.Result, Outcome) {
	if c == nil || p == nil {
		return nil, Miss
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.cfg.Now()

	if e, ok := c.byKey[entryKey(p)]; ok {
		if c.expiredLocked(e, t) {
			c.removeLocked(e, &c.expirations)
		} else {
			c.touchLocked(e)
			c.hits++
			return e.res.Clone(), Hit
		}
	}

	// Subsumption: scan the shape's entries for one whose predicate this
	// query implies, then re-filter its rows with this query's own filter.
	if filter, ok := p.ReuseFilter(); ok {
		for _, e := range c.shapes[p.Fingerprint] {
			if c.expiredLocked(e, t) {
				continue // removed lazily by the next exact lookup or sweep
			}
			if !implies(e.slots, p.Literals, e.lits) {
				continue
			}
			c.touchLocked(e)
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
	if g, ok := c.ghosts[entryKey(p)]; ok {
		// A cache with twice the budget would (likely) still hold this.
		c.shadowHits++
		c.removeGhostLocked(g)
	}
	return nil, Miss
}

// Store caches a completed result under the plan's identity, attributed to
// the tenant. The result is deep-copied; partial or truncated results must
// not be stored (the master gates on that).
func (c *Cache) Store(p *plan.PhysicalPlan, tenant string, res *exec.Result) {
	c.StoreIf(p, tenant, res, nil)
}

// StoreIf is Store, refused (counted in StoreSkips) when current reports
// that a table the plan read has been invalidated since the plan was bound.
// current runs under the cache's lock: an invalidator that records its move
// first and calls InvalidateTable second is then either ahead of this store,
// which sees the move, or behind it, and drops the entry. Without the check
// a result planned before an ingest could be stored after the ingest's
// InvalidateTable and be served until its TTL.
func (c *Cache) StoreIf(p *plan.PhysicalPlan, tenant string, res *exec.Result, current func() bool) {
	if c == nil || p == nil || res == nil {
		return
	}
	size := resultBytes(res)
	if size > c.cfg.CapacityBytes || (c.cfg.TenantBytes > 0 && size > c.cfg.TenantBytes) {
		c.mu.Lock()
		c.storeSkips++
		c.mu.Unlock()
		return
	}
	e := &entry{
		key:    entryKey(p),
		fp:     p.Fingerprint,
		litKey: p.LiteralKey,
		lits:   append([]types.Value(nil), p.Literals...),
		slots:  append([]plan.LitSlot(nil), p.ReuseSlots...),
		tables: planTables(p),
		tenant: tenant,
		res:    res.Clone(),
		bytes:  size,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if current != nil && !current() {
		c.storeSkips++
		return
	}
	if c.cfg.TTL > 0 {
		e.expires = c.cfg.Now().Add(c.cfg.TTL)
	}
	if old, ok := c.byKey[e.key]; ok {
		c.removeLocked(old, nil)
	}
	if g, ok := c.ghosts[e.key]; ok {
		c.removeGhostLocked(g)
	}
	c.byKey[e.key] = e
	c.shapes[e.fp] = append(c.shapes[e.fp], e)
	c.pushFrontLocked(e)
	c.bytes += e.bytes
	c.tenantBytes[e.tenant] += e.bytes

	// Tenant quota first (evict the tenant's own LRU tail), then the global
	// budget.
	if c.cfg.TenantBytes > 0 {
		for c.tenantBytes[e.tenant] > c.cfg.TenantBytes {
			victim := c.tailOfTenantLocked(e.tenant, e)
			if victim == nil {
				break
			}
			c.evictLocked(victim)
		}
	}
	for c.bytes > c.cfg.CapacityBytes && c.tail != nil {
		c.evictLocked(c.tail)
	}
	c.cfg.Events.Emit("rescache", events.CacheStore, "", -1,
		fmt.Sprintf("%s bytes=%d", e.fp, e.bytes))
}

// InvalidateTable drops every entry (and ghost) whose query read the table.
// Called by the master on catalog changes and by ingest when partitions are
// written or rewritten.
func (c *Cache) InvalidateTable(table string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for e := c.head; e != nil; {
		next := e.next
		if containsStr(e.tables, table) {
			c.removeLocked(e, &c.invalidations)
			dropped++
		}
		e = next
	}
	if dropped > 0 {
		c.cfg.Events.Emit("rescache", events.CacheInvalidate, "", -1,
			fmt.Sprintf("%s entries=%d", table, dropped))
	}
	for g := c.ghostHead; g != nil; {
		next := g.next
		if containsStr(g.tables, table) {
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
		Bytes:      c.bytes, GhostBytes: c.ghostBytes,
		Entries: len(c.byKey), Ghosts: len(c.ghosts),
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

func (c *Cache) touchLocked(e *entry) {
	if c.head == e {
		return
	}
	c.unlinkLocked(e)
	c.pushFrontLocked(e)
}

func (c *Cache) pushFrontLocked(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// removeLocked detaches the entry from every structure; counter (when non
// nil) is incremented. No ghost is left behind — use evictLocked for
// capacity evictions that should feed the shadow gauge.
func (c *Cache) removeLocked(e *entry, counter *int64) {
	c.unlinkLocked(e)
	delete(c.byKey, e.key)
	c.dropShapeLocked(e)
	c.bytes -= e.bytes
	c.tenantBytes[e.tenant] -= e.bytes
	if c.tenantBytes[e.tenant] <= 0 {
		delete(c.tenantBytes, e.tenant)
	}
	if counter != nil {
		*counter++
	}
}

// evictLocked removes for capacity and records a ghost.
func (c *Cache) evictLocked(e *entry) {
	c.removeLocked(e, &c.evictions)
	c.cfg.Events.Emit("rescache", events.CacheEvict, "", -1, e.fp)
	g := &ghost{key: e.key, tables: e.tables, bytes: e.bytes}
	c.ghosts[g.key] = g
	g.next = c.ghostHead
	if c.ghostHead != nil {
		c.ghostHead.prev = g
	}
	c.ghostHead = g
	if c.ghostTail == nil {
		c.ghostTail = g
	}
	c.ghostBytes += g.bytes
	// Ghost budget equals the main budget: main + ghost together model a
	// cache at 2x capacity.
	for c.ghostBytes > c.cfg.CapacityBytes && c.ghostTail != nil {
		c.removeGhostLocked(c.ghostTail)
	}
}

func (c *Cache) removeGhostLocked(g *ghost) {
	if g.prev != nil {
		g.prev.next = g.next
	} else {
		c.ghostHead = g.next
	}
	if g.next != nil {
		g.next.prev = g.prev
	} else {
		c.ghostTail = g.prev
	}
	g.prev, g.next = nil, nil
	delete(c.ghosts, g.key)
	c.ghostBytes -= g.bytes
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

// tailOfTenantLocked finds the least-recently-used entry of the tenant,
// excluding the just-inserted one.
func (c *Cache) tailOfTenantLocked(tenant string, skip *entry) *entry {
	for e := c.tail; e != nil; e = e.prev {
		if e != skip && e.tenant == tenant {
			return e
		}
	}
	return nil
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

// planTables names every table the plan reads: the fact table, broadcast
// dimensions and a repartitioned build side alike.
func planTables(p *plan.PhysicalPlan) []string {
	tables := make([]string, len(p.A.Tables))
	for i, bt := range p.A.Tables {
		tables[i] = bt.Meta.Name
	}
	return tables
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

func containsStr(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
