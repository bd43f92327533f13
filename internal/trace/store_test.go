package trace

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

func storedTrace(id, fp string) StoredTrace {
	root := New("master/query")
	c := root.Child("master/execute")
	c.SetSim(time.Millisecond)
	c.Count("rows", 42)
	c.SetAttr("stage", "execute")
	c.Finish()
	root.SetSim(time.Millisecond)
	root.Finish()
	return StoredTrace{QueryID: id, Fingerprint: fp, SQL: "SELECT 1", When: time.Now(),
		Wall: root.Wall(), Sim: time.Millisecond, Root: root}
}

func TestStoreRingAndLookup(t *testing.T) {
	var st Store
	for i := 0; i < StoreSize+2; i++ {
		st.Add(storedTrace(fmt.Sprintf("q%d", i), fmt.Sprintf("fp%d", i%2)))
	}
	ts := st.Traces()
	if len(ts) != StoreSize || ts[0].QueryID != "q129" || ts[StoreSize-1].QueryID != "q2" {
		t.Fatalf("Traces() = %d entries, newest %s, oldest %s", len(ts), ts[0].QueryID, ts[len(ts)-1].QueryID)
	}
	if _, ok := st.Get("q1"); ok {
		t.Fatal("evicted trace still resolvable")
	}
	got, ok := st.Get("q3")
	if !ok || got.QueryID != "q3" {
		t.Fatalf("Get(q3) = %v, %v", got.QueryID, ok)
	}
	// Fingerprint lookup returns the newest match: fp0 matches every even ID.
	got, ok = st.Get("fp0")
	if !ok || got.QueryID != "q128" {
		t.Fatalf("Get(fp0) = %v, want q128", got.QueryID)
	}

	// A full ring evicts its oldest fast entry, not an older slow one.
	var mixed Store
	slow := storedTrace("slow", "fpS")
	slow.Slow = true
	mixed.Add(slow)
	for i := 0; i < StoreSize; i++ {
		mixed.Add(storedTrace(fmt.Sprintf("q%d", i), "fp"))
	}
	if _, ok := mixed.Get("slow"); !ok {
		t.Fatal("slow entry evicted before a fast one")
	}
	if _, ok := mixed.Get("q0"); ok {
		t.Fatal("oldest fast entry kept past a full ring")
	}
}

// TestStoreKeepsSlowFirst: over a stream of fast and slow statements, the
// newest statement is always resolvable, and once the stream ends on a slow
// one the ring holds exactly the newest StoreSize slow statements.
func TestStoreKeepsSlowFirst(t *testing.T) {
	var st Store
	var slowIDs []string
	fast, slow := 0, 0
	for i := 0; fast < 200 || slow < 150; i++ {
		// Two fast to one slow until the fast ones run out; the stream
		// ends on slow statements.
		isSlow := fast == 200 || (i%3 == 2 && slow < 150)
		id := fmt.Sprintf("q%d", i)
		e := storedTrace(id, "fp"+id)
		e.Slow = isSlow
		if isSlow {
			slow++
			slowIDs = append(slowIDs, id)
		} else {
			fast++
		}
		st.Add(e)
		if got, ok := st.Get(id); !ok || got.QueryID != id {
			t.Fatalf("newest entry %s not resolvable", id)
		}
	}
	kept := st.Slow()
	if len(kept) != StoreSize {
		t.Fatalf("kept %d slow entries, want %d", len(kept), StoreSize)
	}
	for i, e := range kept {
		if want := slowIDs[len(slowIDs)-1-i]; e.QueryID != want {
			t.Fatalf("slow entry %d = %s, want %s (newest first)", i, e.QueryID, want)
		}
	}
	if got := st.SlowTotal(); got != 150 {
		t.Fatalf("SlowTotal = %d, want 150", got)
	}
}

func TestStoreNilSafe(t *testing.T) {
	var st *Store
	st.Add(storedTrace("q", "fp"))
	if st.Traces() != nil || st.Slow() != nil || st.SlowTotal() != 0 {
		t.Fatal("nil store retained something")
	}
	if _, ok := st.Get("q"); ok {
		t.Fatal("nil store resolved a trace")
	}
	// A trace without a root span is ignored.
	var st2 Store
	st2.Add(StoredTrace{QueryID: "q", Slow: true})
	if len(st2.Traces()) != 0 || st2.SlowTotal() != 0 {
		t.Fatal("rootless trace retained")
	}
}

func TestToJaegerShape(t *testing.T) {
	doc := ToJaeger(storedTrace("q7", "fpX"))
	if len(doc.Data) != 1 {
		t.Fatalf("data length %d", len(doc.Data))
	}
	tr := doc.Data[0]
	if len(tr.TraceID) != 32 {
		t.Errorf("traceID %q not 128-bit hex", tr.TraceID)
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(tr.Spans))
	}
	rootSpan, childSpan := tr.Spans[0], tr.Spans[1]
	if len(rootSpan.References) != 0 {
		t.Error("root span has a parent reference")
	}
	if len(childSpan.References) != 1 || childSpan.References[0].SpanID != rootSpan.SpanID ||
		childSpan.References[0].RefType != "CHILD_OF" {
		t.Errorf("child references = %+v", childSpan.References)
	}
	if rootSpan.StartTime == 0 {
		t.Error("root startTime unset")
	}
	tagVal := func(s JaegerSpan, key string) any {
		for _, tg := range s.Tags {
			if tg.Key == key {
				return tg.Value
			}
		}
		return nil
	}
	if tagVal(rootSpan, "query.id") != "q7" || tagVal(rootSpan, "query.sql") != "SELECT 1" {
		t.Errorf("root tags = %+v", rootSpan.Tags)
	}
	if tagVal(childSpan, "rows") != int64(42) || tagVal(childSpan, "stage") != "execute" {
		t.Errorf("child tags = %+v", childSpan.Tags)
	}
	if tagVal(childSpan, "sim_us") != int64(1000) {
		t.Errorf("child sim tag = %v", tagVal(childSpan, "sim_us"))
	}
	// Wall rounds to 0µs for in-process spans; the sim duration stands in.
	if childSpan.Duration == 0 {
		t.Error("child duration 0 despite sim time")
	}
	if _, err := json.Marshal(doc); err != nil {
		t.Fatalf("marshal: %v", err)
	}
	// Same query, same IDs: exports are stable.
	if doc2 := ToJaeger(storedTrace("q7", "fpX")); doc2.Data[0].TraceID != tr.TraceID {
		t.Error("trace ID not stable across exports")
	}
}
