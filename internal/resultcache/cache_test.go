package resultcache

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

func testCatalog() plan.MapCatalog {
	logs := types.MustSchema(
		types.Field{Name: "url", Type: types.String},
		types.Field{Name: "clicks", Type: types.Int64},
		types.Field{Name: "pos", Type: types.Int64},
	)
	dims := types.MustSchema(
		types.Field{Name: "url", Type: types.String},
		types.Field{Name: "site", Type: types.String},
	)
	return plan.MapCatalog{
		"logs": &plan.TableMeta{Name: "logs", Schema: logs, Partitions: []plan.PartitionMeta{
			{Path: "/hdfs/logs/p0", Rows: 100, Bytes: 1000},
		}},
		"sites": &plan.TableMeta{Name: "sites", Schema: dims, Partitions: []plan.PartitionMeta{
			{Path: "/ffs/sites/p0", Rows: 10, Bytes: 100},
		}},
	}
}

func planSQL(t *testing.T, sql string) *plan.PhysicalPlan {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	p, err := plan.Plan(stmt, testCatalog())
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return p
}

// selectResult builds a (url, clicks) result.
func selectResult(rows ...[2]interface{}) *exec.Result {
	res := &exec.Result{
		Columns:        []string{"url", "clicks"},
		Types:          []types.Type{types.String, types.Int64},
		ProcessedRatio: 1,
	}
	for _, r := range rows {
		res.Rows = append(res.Rows, []types.Value{
			types.NewString(r[0].(string)), types.NewInt(int64(r[1].(int))),
		})
	}
	return res
}

func newTestCache(capacity int64, opts ...func(*Config)) (*Cache, *time.Time) {
	now := time.Unix(1_700_000_000, 0)
	cfg := Config{CapacityBytes: capacity, Now: func() time.Time { return now }}
	for _, o := range opts {
		o(&cfg)
	}
	return New(cfg), &now
}

func TestNilCacheIsNoOp(t *testing.T) {
	var c *Cache
	p := planSQL(t, "SELECT url, clicks FROM logs WHERE clicks > 10")
	c.Store(p, "a", selectResult([2]interface{}{"u", 11}))
	if res, out := c.Lookup(p); res != nil || out != Miss {
		t.Fatal("nil cache must miss")
	}
	c.InvalidateTable("logs")
	if s := c.Snapshot(); s != (Stats{}) {
		t.Fatalf("nil snapshot = %+v", s)
	}
	if New(Config{}) != nil {
		t.Fatal("zero capacity must yield a nil cache")
	}
}

func TestExactHitAndIsolation(t *testing.T) {
	c, _ := newTestCache(1 << 20)
	p := planSQL(t, "SELECT url, clicks FROM logs WHERE clicks > 10")
	orig := selectResult([2]interface{}{"u", 11})
	c.Store(p, "a", orig)
	orig.Rows[0][1] = types.NewInt(999) // caller mutation must not leak in

	res, out := c.Lookup(p)
	if out != Hit || res == nil {
		t.Fatalf("lookup = %v, %v", res, out)
	}
	if res.Rows[0][1].I != 11 {
		t.Fatalf("stored rows must be isolated from the caller: %v", res.Rows[0])
	}
	res.Rows[0][1] = types.NewInt(-1) // served copy mutation must not leak back
	res2, _ := c.Lookup(p)
	if res2.Rows[0][1].I != 11 {
		t.Fatal("served rows must be isolated per lookup")
	}
	if s := c.Snapshot(); s.Hits != 2 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSubsumptionReuse(t *testing.T) {
	c, _ := newTestCache(1 << 20)
	wide := planSQL(t, "SELECT url, clicks FROM logs WHERE clicks > 10")
	c.Store(wide, "a", selectResult(
		[2]interface{}{"a", 11}, [2]interface{}{"b", 25}, [2]interface{}{"c", 40}))

	narrow := planSQL(t, "SELECT url, clicks FROM logs WHERE clicks > 20")
	res, out := c.Lookup(narrow)
	if out != SubsumedHit || res == nil {
		t.Fatalf("narrow lookup = %v, %v", res, out)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].S != "b" || res.Rows[1][0].S != "c" {
		t.Fatalf("re-filtered rows = %v", res.Rows)
	}

	// The reverse direction must NOT reuse: cached `> 20` cannot answer `> 10`.
	c2, _ := newTestCache(1 << 20)
	c2.Store(narrow, "a", selectResult([2]interface{}{"b", 25}))
	if _, out := c2.Lookup(wide); out != Miss {
		t.Fatalf("wider query served from narrower entry: %v", out)
	}
}

func TestSubsumptionOperators(t *testing.T) {
	cases := []struct {
		cached, query string
		want          Outcome
	}{
		{"clicks >= 10", "clicks >= 15", SubsumedHit},
		{"clicks >= 15", "clicks >= 10", Miss},
		{"clicks < 50", "clicks < 20", SubsumedHit},
		{"clicks <= 20", "clicks <= 50", Miss},
		{"url CONTAINS 'b'", "url CONTAINS 'abc'", SubsumedHit},
		{"url CONTAINS 'abc'", "url CONTAINS 'b'", Miss},
		{"clicks = 10", "clicks = 11", Miss},
		{"clicks != 10", "clicks != 11", Miss},
	}
	for _, tc := range cases {
		c, _ := newTestCache(1 << 20)
		cp := planSQL(t, "SELECT url, clicks FROM logs WHERE "+tc.cached)
		c.Store(cp, "a", selectResult([2]interface{}{"abcd", 17}))
		qp := planSQL(t, "SELECT url, clicks FROM logs WHERE "+tc.query)
		if _, out := c.Lookup(qp); out != tc.want {
			t.Errorf("cached %q query %q: outcome %v, want %v", tc.cached, tc.query, out, tc.want)
		}
	}
}

func TestIneligibleShapesExactOnly(t *testing.T) {
	c, _ := newTestCache(1 << 20)
	agg := planSQL(t, "SELECT COUNT(*) AS n FROM logs WHERE clicks > 10")
	res := &exec.Result{Columns: []string{"n"}, Types: []types.Type{types.Int64},
		Rows: [][]types.Value{{types.NewInt(3)}}, ProcessedRatio: 1}
	c.Store(agg, "a", res)
	if _, out := c.Lookup(agg); out != Hit {
		t.Fatal("aggregates must still serve exact hits")
	}
	agg2 := planSQL(t, "SELECT COUNT(*) AS n FROM logs WHERE clicks > 20")
	if _, out := c.Lookup(agg2); out != Miss {
		t.Fatal("aggregates must never serve subsumed hits")
	}
}

func TestTTLExpiry(t *testing.T) {
	c, now := newTestCache(1<<20, func(cfg *Config) { cfg.TTL = time.Minute })
	p := planSQL(t, "SELECT url, clicks FROM logs WHERE clicks > 10")
	c.Store(p, "a", selectResult([2]interface{}{"u", 11}))
	if _, out := c.Lookup(p); out != Hit {
		t.Fatal("fresh entry should hit")
	}
	*now = now.Add(2 * time.Minute)
	if _, out := c.Lookup(p); out != Miss {
		t.Fatal("expired entry should miss")
	}
	if s := c.Snapshot(); s.Expirations != 1 || s.Entries != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestInvalidateTable(t *testing.T) {
	c, _ := newTestCache(1 << 20)
	pLogs := planSQL(t, "SELECT url, clicks FROM logs WHERE clicks > 10")
	pJoin := planSQL(t, "SELECT site FROM logs, sites WHERE logs.url = sites.url")
	c.Store(pLogs, "a", selectResult([2]interface{}{"u", 11}))
	c.Store(pJoin, "a", &exec.Result{Columns: []string{"site"}, Types: []types.Type{types.String}, ProcessedRatio: 1})

	c.InvalidateTable("sites")
	if _, out := c.Lookup(pLogs); out != Hit {
		t.Fatal("unrelated entry must survive")
	}
	if _, out := c.Lookup(pJoin); out != Miss {
		t.Fatal("join entry reading the table must be dropped")
	}
	c.InvalidateTable("logs")
	if _, out := c.Lookup(pLogs); out != Miss {
		t.Fatal("fact entry must be dropped")
	}
	if s := c.Snapshot(); s.Invalidations != 2 || s.Entries != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestStoreIfAsksUnderTheLock pins the store-after-invalidate rule: the
// freshness verdict is taken inside the cache's critical section, so an
// invalidator that moves its version first and calls InvalidateTable second
// can never be overtaken by a stale store. A refused store is counted and
// leaves whatever was cached alone.
func TestStoreIfAsksUnderTheLock(t *testing.T) {
	c, _ := newTestCache(1 << 20)
	p := planSQL(t, "SELECT url, clicks FROM logs WHERE clicks > 10")
	fresh := selectResult([2]interface{}{"u", 11})

	c.StoreIf(p, "a", fresh, func() bool {
		if c.mu.TryLock() {
			c.mu.Unlock()
			t.Error("current() ran outside the cache's lock")
		}
		return true
	})
	if _, out := c.Lookup(p); out != Hit {
		t.Fatal("a current result must be stored")
	}

	c.StoreIf(p, "a", selectResult([2]interface{}{"stale", 99}), func() bool { return false })
	res, out := c.Lookup(p)
	if out != Hit || res.Rows[0][0].S != "u" {
		t.Fatalf("refused store replaced the entry: %v, %v", res, out)
	}
	if s := c.Snapshot(); s.StoreSkips != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want the refusal counted", s)
	}
}

func TestLRUEvictionAndShadow(t *testing.T) {
	// Budget fits roughly two entries of this size.
	one := selectResult([2]interface{}{"uuuuuuuu", 1})
	per := resultBytes(one)
	c, _ := newTestCache(2*per + per/2)

	plans := make([]*plan.PhysicalPlan, 3)
	for i := range plans {
		plans[i] = planSQL(t, fmt.Sprintf("SELECT url, clicks FROM logs WHERE clicks > %d AND pos = %d", i, i))
		c.Store(plans[i], "a", one)
	}
	// Entry 0 is the LRU victim.
	if _, out := c.Lookup(plans[0]); out != Miss {
		t.Fatal("oldest entry should have been evicted")
	}
	s := c.Snapshot()
	if s.Evictions != 1 || s.ShadowHits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Bytes > 2*per+per/2 {
		t.Fatalf("bytes %d over budget", s.Bytes)
	}
	// The miss on a ghost key is the shadow signal.
	if r := c.ShadowHitRatio(); r <= c.HitRatio() {
		t.Fatalf("shadow ratio %v should exceed real ratio %v", r, c.HitRatio())
	}
}

func TestTenantQuota(t *testing.T) {
	one := selectResult([2]interface{}{"uuuuuuuu", 1})
	per := resultBytes(one)
	c, _ := newTestCache(100*per, func(cfg *Config) { cfg.TenantBytes = 2*per + per/2 })

	var plansA []*plan.PhysicalPlan
	for i := 0; i < 3; i++ {
		p := planSQL(t, fmt.Sprintf("SELECT url, clicks FROM logs WHERE clicks > %d AND pos = %d", i, i))
		plansA = append(plansA, p)
		c.Store(p, "tenant-a", one)
	}
	pB := planSQL(t, "SELECT url, clicks FROM logs WHERE pos > 7")
	c.Store(pB, "tenant-b", one)

	// tenant-a exceeded its quota: its own LRU entry went, tenant-b's stayed.
	if _, out := c.Lookup(plansA[0]); out != Miss {
		t.Fatal("tenant-a's oldest entry should be evicted by its quota")
	}
	if _, out := c.Lookup(plansA[2]); out != Hit {
		t.Fatal("tenant-a's newest entry should survive")
	}
	if _, out := c.Lookup(pB); out != Hit {
		t.Fatal("tenant-b must be unaffected by tenant-a's quota")
	}
	// Oversized single results are skipped outright.
	big := selectResult()
	for i := 0; i < 200; i++ {
		big.Rows = append(big.Rows, []types.Value{types.NewString("x"), types.NewInt(1)})
	}
	pBig := planSQL(t, "SELECT url, clicks FROM logs WHERE pos > 8")
	c.Store(pBig, "tenant-b", big)
	if _, out := c.Lookup(pBig); out != Miss {
		t.Fatal("over-quota result must not be cached")
	}
	if s := c.Snapshot(); s.StoreSkips != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestStoreReplacesExisting(t *testing.T) {
	c, _ := newTestCache(1 << 20)
	p := planSQL(t, "SELECT url, clicks FROM logs WHERE clicks > 10")
	c.Store(p, "a", selectResult([2]interface{}{"old", 11}))
	c.Store(p, "a", selectResult([2]interface{}{"new", 12}))
	res, out := c.Lookup(p)
	if out != Hit || len(res.Rows) != 1 || res.Rows[0][0].S != "new" {
		t.Fatalf("lookup = %v, %v", res, out)
	}
	if s := c.Snapshot(); s.Entries != 1 {
		t.Fatalf("replacement must not duplicate entries: %+v", s)
	}
}

func TestOutcomeString(t *testing.T) {
	if Miss.String() != "miss" || Hit.String() != "hit" || SubsumedHit.String() != "subsumed" {
		t.Fatal("outcome names are part of the stats/trace contract")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, _ := newTestCache(1 << 16)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				p := planSQL(t, fmt.Sprintf("SELECT url, clicks FROM logs WHERE clicks > %d", i%17))
				switch i % 3 {
				case 0:
					c.Store(p, fmt.Sprintf("t%d", w), selectResult([2]interface{}{"u", 42}))
				case 1:
					c.Lookup(p)
				default:
					c.InvalidateTable("logs")
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}
