package feisu

import (
	"context"
	"fmt"
	"testing"
	"time"
)

func visitSchema() *Schema {
	return MustSchema(
		Field{Name: "id", Type: Int64},
		Field{Name: "url", Type: String},
		Field{Name: "clicks", Type: Int64},
		Field{Name: "score", Type: Float64},
	)
}

func loadVisits(t *testing.T, sys *System, prefix string, n int) {
	t.Helper()
	ld, err := sys.NewLoader("visits", visitSchema(), prefix)
	if err != nil {
		t.Fatal(err)
	}
	ld.SetPartitionRows(n / 4)
	ld.SetBlockRows(32)
	for i := 0; i < n; i++ {
		if err := ld.Append(Row{
			Int(int64(i)), Str(fmt.Sprintf("http://u/%d", i%7)), Int(int64(i % 10)), Float(float64(i) / float64(n)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ld.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSystemQuickstart(t *testing.T) {
	sys, err := New(Config{Leaves: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	loadVisits(t, sys, "/hdfs/visits", 400)

	ctx := context.Background()
	res, err := sys.Query(ctx, "SELECT COUNT(*) FROM visits")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 400 {
		t.Errorf("count = %v", res.Rows[0][0])
	}

	res, err = sys.Query(ctx, "SELECT url, COUNT(*) AS n FROM visits WHERE clicks > 5 GROUP BY url ORDER BY n DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Columns[0] != "url" {
		t.Errorf("rows = %+v", res.Rows)
	}
}

func TestSystemOnColdArchive(t *testing.T) {
	sys, err := New(Config{Leaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	loadVisits(t, sys, "/ffs/visits", 100)
	res, _, err := sys.QueryStats(context.Background(), "SELECT SUM(clicks) FROM visits")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 450 {
		t.Errorf("sum = %v", res.Rows[0][0])
	}
}

func TestSystemSmartIndexStats(t *testing.T) {
	sys, err := New(Config{Leaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	loadVisits(t, sys, "/hdfs/visits", 200)
	ctx := context.Background()
	if _, err := sys.Query(ctx, "SELECT COUNT(*) FROM visits WHERE clicks > 4"); err != nil {
		t.Fatal(err)
	}
	st := sys.IndexStats()
	if st.Stored == 0 || st.Misses == 0 {
		t.Errorf("cold stats = %+v", st)
	}
	if _, err := sys.Query(ctx, "SELECT COUNT(*) FROM visits WHERE clicks > 4"); err != nil {
		t.Fatal(err)
	}
	if sys.IndexStats().Hits == 0 {
		t.Error("warm query should hit the index")
	}
	sys.ResetIndexCounters()
	if sys.IndexStats().Hits != 0 {
		t.Error("counters should reset")
	}
}

func TestSystemBTreeBaseline(t *testing.T) {
	sys, err := New(Config{Leaves: 2, Index: IndexBTree})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	loadVisits(t, sys, "/hdfs/visits", 100)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		res, err := sys.Query(ctx, "SELECT COUNT(*) FROM visits WHERE clicks >= 5")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].I != 50 {
			t.Errorf("count = %v", res.Rows[0][0])
		}
	}
	if st := sys.IndexStats(); st.Stored != 0 {
		t.Error("btree config should not populate SmartIndex stats")
	}
}

func TestSystemNoIndex(t *testing.T) {
	sys, err := New(Config{Leaves: 1, Index: IndexNone, Stems: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	loadVisits(t, sys, "/visits", 50)
	res, err := sys.Query(context.Background(), "SELECT MAX(id) FROM visits")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 49 {
		t.Errorf("max = %v", res.Rows[0][0])
	}
}

func TestSystemWithAuth(t *testing.T) {
	sys, err := New(Config{Leaves: 2, EnableAuth: true, MaxConcurrentQueriesPerUser: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	loadVisits(t, sys, "/hdfs/visits", 100)

	authy := sys.Authority()
	token, err := authy.Register("li")
	if err != nil {
		t.Fatal(err)
	}
	authy.Grant("li", "hdfs")

	ctx := context.Background()
	if _, err := sys.Query(ctx, "SELECT COUNT(*) FROM visits"); err == nil {
		t.Error("query without token should fail under auth")
	}
	res, err := sys.Query(ctx, "SELECT COUNT(*) FROM visits", WithToken(token))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 100 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestSystemCacheOption(t *testing.T) {
	sys, err := New(Config{Leaves: 2, CacheBytes: 1 << 20, CachePrefixes: []string{"/hdfs/"}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	loadVisits(t, sys, "/hdfs/visits", 200)
	ctx := context.Background()
	// No-index config would cache on filter reads; with SmartIndex the
	// projection reads still flow through the cache.
	if _, err := sys.Query(ctx, "SELECT SUM(id) FROM visits"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Query(ctx, "SELECT SUM(id) FROM visits"); err != nil {
		t.Fatal(err)
	}
	if sys.CacheMissRatio() >= 1 {
		t.Errorf("miss ratio = %v", sys.CacheMissRatio())
	}
}

func TestLoaderJSON(t *testing.T) {
	sys, err := New(Config{Leaves: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	schema := MustSchema(
		Field{Name: "id", Type: Int64},
		Field{Name: "user.name", Type: String},
		Field{Name: "clicks.pos", Type: Int64, Repeated: true},
	)
	ld, err := sys.NewLoader("events", schema, "/hdfs/events")
	if err != nil {
		t.Fatal(err)
	}
	docs := []string{
		`{"id": 1, "user": {"name": "li"}, "clicks": [{"pos": 1}, {"pos": 4}]}`,
		`{"id": 2, "user": {"name": "wang"}}`,
	}
	for _, d := range docs {
		if err := ld.AppendJSON([]byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ld.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(context.Background(),
		"SELECT id, COUNT(clicks.pos) WITHIN RECORD AS n FROM events ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].I != 2 || res.Rows[1][1].I != 0 {
		t.Errorf("rows = %+v", res.Rows)
	}
}

// TestLoaderUsableAfterBadRecord: a record rejected on a later field leaves
// nothing behind, so the loader takes the next record and the table reads.
func TestLoaderUsableAfterBadRecord(t *testing.T) {
	sys, err := New(Config{Leaves: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	schema := MustSchema(Field{Name: "a", Type: Int64}, Field{Name: "b", Type: Bool})
	ld, err := sys.NewLoader("flags", schema, "/hdfs/flags")
	if err != nil {
		t.Fatal(err)
	}
	if err := ld.AppendRecord([][]Value{{Int(1)}, {Int(2)}}); err == nil {
		t.Fatal("INT into BOOLEAN accepted")
	}
	if err := ld.AppendJSON([]byte(`{"a": 1, "b": 2}`)); err == nil {
		t.Fatal("JSON number into BOOLEAN accepted")
	}
	if err := ld.AppendJSON([]byte(`{"a": 3, "b": true}`)); err != nil {
		t.Fatal(err)
	}
	if err := ld.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(context.Background(), "SELECT a, b FROM flags")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 || !res.Rows[0][1].B {
		t.Errorf("rows = %+v", res.Rows)
	}
}

func TestLoaderErrors(t *testing.T) {
	sys, err := New(Config{Leaves: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.NewLoader("", visitSchema(), "/x"); err == nil {
		t.Error("empty name should fail")
	}
	ld, _ := sys.NewLoader("t", visitSchema(), "/t")
	_ = ld.Append(Row{Int(1), Str("u"), Int(1), Float(0)})
	if err := ld.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ld.Append(Row{Int(2), Str("u"), Int(1), Float(0)}); err == nil {
		t.Error("append after close should fail")
	}
	if err := ld.Close(); err != nil {
		t.Errorf("double close should be a no-op: %v", err)
	}
}

func TestQueryTimeLimitOptions(t *testing.T) {
	sys, err := New(Config{Leaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	loadVisits(t, sys, "/hdfs/visits", 100)
	res, err := sys.Query(context.Background(), "SELECT COUNT(*) FROM visits",
		WithTimeLimit(5*time.Second), WithMinProcessedRatio(0.5), WithTaskTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 100 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestHeartbeatLoop(t *testing.T) {
	sys, err := New(Config{Leaves: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.StartHeartbeats(10 * time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	sys.Close()
}

func TestNullColumnsNegationEndToEnd(t *testing.T) {
	// NULLs satisfy neither a predicate nor its negation; warm index runs
	// must agree with cold ones even though bit-NOT derivations are
	// disabled on NULL-bearing blocks.
	sys, err := New(Config{Leaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	schema := MustSchema(
		Field{Name: "id", Type: Int64},
		Field{Name: "v", Type: Int64},
	)
	ld, err := sys.NewLoader("nullable", schema, "/hdfs/nullable")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 90; i++ {
		v := Null()
		if i%3 != 0 { // a third of the rows are NULL
			v = Int(int64(i % 10))
		}
		if err := ld.Append(Row{Int(int64(i)), v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ld.Close(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	queries := []string{
		"SELECT COUNT(*) FROM nullable WHERE v > 5",
		"SELECT COUNT(*) FROM nullable WHERE NOT (v > 5)",
		"SELECT COUNT(*) FROM nullable WHERE v <= 5",
	}
	cold := make([]int64, len(queries))
	for i, q := range queries {
		res, err := sys.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = res.Rows[0][0].I
	}
	// pos>5: i%10 in 6..9 over non-null rows; NOT and <= agree and both
	// exclude the 30 NULL rows.
	if cold[1] != cold[2] {
		t.Errorf("NOT(v>5)=%d but v<=5=%d", cold[1], cold[2])
	}
	if cold[0]+cold[1] >= 90 {
		t.Errorf("NULL rows leaked into a predicate: %d + %d", cold[0], cold[1])
	}
	for i, q := range queries { // warm: same answers via the index
		res, err := sys.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].I != cold[i] {
			t.Errorf("warm %q = %v, cold %v", q, res.Rows[0][0].I, cold[i])
		}
	}
}

func TestStorageAgreementConfig(t *testing.T) {
	sys, err := New(Config{Leaves: 2, StorageMaxConcurrentReads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	loadVisits(t, sys, "/hdfs/visits", 200)
	// Queries still work under a tight agreement; reads serialize.
	res, err := sys.Query(context.Background(), "SELECT COUNT(*) FROM visits WHERE clicks > 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 140 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestIndexSweeperRuns(t *testing.T) {
	sys, err := New(Config{Leaves: 1, IndexTTL: time.Nanosecond, HeartbeatInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	loadVisits(t, sys, "/hdfs/visits", 100)
	if _, err := sys.Query(context.Background(), "SELECT COUNT(*) FROM visits WHERE clicks > 3"); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	deadline := time.Now().Add(2 * time.Second)
	for sys.IndexStats().Entries > 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweeper never evicted expired entries")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestExplainAPI(t *testing.T) {
	sys, err := New(Config{Leaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	loadVisits(t, sys, "/hdfs/visits", 100)
	desc, err := sys.Explain("SELECT url, COUNT(*) FROM visits WHERE clicks > 3 GROUP BY url")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mode: aggregate", "clicks > 3 [indexable]", "leaf sub-plan"} {
		if !containsStr(desc, want) {
			t.Errorf("Explain missing %q:\n%s", want, desc)
		}
	}
	if _, err := sys.Explain("SELECT nope FROM visits"); err == nil {
		t.Error("bad query should fail to explain")
	}
	if _, err := sys.Explain("not sql"); err == nil {
		t.Error("unparseable query should fail")
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestRepeatedColumnIgnoresIndexState: an atom over a repeated column
// matches a record when any element does (docs/SQL.md), whatever SmartIndex
// holds. tags is {3, 7}, {9}, {1}, {} for ids 1-4. Once tags > 5 was cached,
// bit-NOT served tags <= 5 and NOT (tags > 5) as ids 3 and 4, and the
// entry's min/max served tags >= 1 as all four ids: the empty record 4 has
// no element, and record 1 has one on each side of 5.
func TestRepeatedColumnIgnoresIndexState(t *testing.T) {
	for _, mode := range []string{"sim", "tcp"} {
		t.Run(mode, func(t *testing.T) {
			sys, err := New(Config{Leaves: 1, Transport: mode})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sys.Close)
			ld, err := sys.NewLoader("tagged", MustSchema(Field{Name: "id", Type: Int64}, Field{Name: "tags", Type: Int64, Repeated: true}), "/hdfs/tagged")
			if err != nil {
				t.Fatal(err)
			}
			for i, tags := range [][]Value{{Int(3), Int(7)}, {Int(9)}, {Int(1)}, nil} {
				if err := ld.AppendRecord([][]Value{{Int(int64(i + 1))}, tags}); err != nil {
					t.Fatal(err)
				}
			}
			if err := ld.Close(); err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct{ where, want string }{
				{"tags > 5", "1 ; 2"},
				{"tags <= 5", "1 ; 3"},
				{"NOT (tags > 5)", "1 ; 3"},
				{"tags >= 1", "1 ; 2 ; 3"},
			} {
				sql := "SELECT id FROM tagged WHERE " + c.where + " ORDER BY id"
				res, err := sys.Query(context.Background(), sql, WithoutResultCache())
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				if got := renderRows(res); got != c.want {
					t.Errorf("%s = %s, want %s", sql, got, c.want)
				}
			}
		})
	}
}

func TestLoaderMultiplePartitionsAndRepeatedFields(t *testing.T) {
	sys, err := New(Config{Leaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	schema := MustSchema(
		Field{Name: "id", Type: Int64},
		Field{Name: "tags", Type: String, Repeated: true},
	)
	ld, err := sys.NewLoader("tagged", schema, "/hdfs/tagged")
	if err != nil {
		t.Fatal(err)
	}
	ld.SetPartitionRows(10)
	for i := 0; i < 25; i++ {
		rec := [][]Value{{Int(int64(i))}, nil}
		for j := 0; j <= i%3; j++ {
			rec[1] = append(rec[1], Str(fmt.Sprintf("t%d", j)))
		}
		if err := ld.AppendRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := ld.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(ld.Meta().Partitions); got != 3 { // 10+10+5
		t.Errorf("partitions = %d", got)
	}
	res2, err := sys.Query(context.Background(),
		"SELECT COUNT(*) FROM tagged WHERE tags = 't2'")
	if err != nil {
		t.Fatal(err)
	}
	// tags contains "t2" when i%3 == 2: i in {2,5,...,23} -> 8 records.
	if res2.Rows[0][0].I != 8 {
		t.Errorf("repeated-field count = %v", res2.Rows[0][0])
	}
}
