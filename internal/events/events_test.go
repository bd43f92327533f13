package events

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{Site: "x", Kind: QuerySubmit})
	r.Emit("x", QueryDone, "q1", -1, "")
	r.EmitSim("x", TaskCollected, "q1", 0, time.Millisecond, "")
	r.SetEnabled(true)
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if got := r.Events(); got != nil {
		t.Fatalf("nil recorder Events() = %v", got)
	}
	if r.Total() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder has counts")
	}
}

func TestRecordAssignsSequences(t *testing.T) {
	r := New(8)
	r.Emit("master", QuerySubmit, "q1", -1, "")
	r.Emit("master", QueryAdmitted, "q1", -1, "")
	r.Emit(TaskSite("q1", 0), TaskScheduled, "q1", 0, "leaf0")
	r.Emit("master", QueryDone, "q1", -1, "rows=1")

	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d: Seq=%d, want %d", i, e.Seq, i+1)
		}
		if e.Wall.IsZero() {
			t.Errorf("event %d: zero wall timestamp", i)
		}
	}
	if evs[0].SiteSeq != 1 || evs[1].SiteSeq != 2 || evs[3].SiteSeq != 3 {
		t.Errorf("master site seqs = %d,%d,%d, want 1,2,3", evs[0].SiteSeq, evs[1].SiteSeq, evs[3].SiteSeq)
	}
	if evs[2].SiteSeq != 1 {
		t.Errorf("task site seq = %d, want 1", evs[2].SiteSeq)
	}
	if r.Total() != 4 || r.Dropped() != 0 {
		t.Fatalf("Total=%d Dropped=%d, want 4, 0", r.Total(), r.Dropped())
	}
}

func TestRingOverwritesOldestAndCountsDrops(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Emit("s", QuerySubmit, fmt.Sprintf("q%d", i), -1, "")
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	// Oldest retained is q6 (q0..q5 overwritten).
	if evs[0].Query != "q6" || evs[3].Query != "q9" {
		t.Fatalf("retained window %s..%s, want q6..q9", evs[0].Query, evs[3].Query)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("retained events out of arrival order: %v", evs)
		}
	}
	if r.Total() != 10 || r.Dropped() != 6 {
		t.Fatalf("Total=%d Dropped=%d, want 10, 6", r.Total(), r.Dropped())
	}
}

func TestDisabledRecorderDrops(t *testing.T) {
	r := New(4)
	r.SetEnabled(false)
	r.Emit("s", QuerySubmit, "q1", -1, "")
	if r.Total() != 0 || len(r.Events()) != 0 {
		t.Fatal("disabled recorder accepted an event")
	}
	r.SetEnabled(true)
	r.Emit("s", QuerySubmit, "q2", -1, "")
	if r.Total() != 1 {
		t.Fatal("re-enabled recorder dropped an event")
	}
}

func TestCanonicalOrderIndependentOfArrival(t *testing.T) {
	// Two interleavings of the same per-site streams must produce the same
	// canonical journal.
	build := func(order []int) []Event {
		r := New(16)
		streams := [][]Event{
			{{Site: "a", Kind: QuerySubmit}, {Site: "a", Kind: QueryDone}},
			{{Site: "b", Kind: TaskScheduled, Task: 0}, {Site: "b", Kind: TaskCollected, Task: 0}},
		}
		idx := []int{0, 0}
		for _, s := range order {
			r.Record(streams[s][idx[s]])
			idx[s]++
		}
		canon := r.Canonical()
		for i := range canon {
			canon[i].Seq, canon[i].Wall = 0, time.Time{} // arrival-dependent
		}
		return canon
	}
	a := build([]int{0, 0, 1, 1})
	b := build([]int{1, 0, 1, 0})
	if len(a) != len(b) {
		t.Fatalf("canonical lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("canonical[%d] differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestForQuery(t *testing.T) {
	r := New(16)
	r.Emit("m", QuerySubmit, "q1", -1, "")
	r.Emit("m", QuerySubmit, "q2", -1, "")
	r.Emit(TaskSite("q1", 0), TaskCollected, "q1", 0, "")
	got := r.ForQuery("q1")
	if len(got) != 2 {
		t.Fatalf("ForQuery(q1) = %d events, want 2", len(got))
	}
}

func TestEventString(t *testing.T) {
	e := Event{Seq: 42, Site: "task/q3#1", SiteSeq: 2, Kind: TaskRetry,
		Query: "q3", Task: 1, Sim: 1200 * time.Microsecond, Detail: "leaf2: read error"}
	s := e.String()
	for _, want := range []string{"#42", "task/q3#1+2", "task.retry", "q3", "t1", "sim=1.2ms", "read error"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	// Query-scoped events omit the task ordinal.
	e2 := Event{Seq: 1, Site: "m", SiteSeq: 1, Kind: QueryDone, Query: "q1", Task: -1}
	if strings.Contains(e2.String(), " t-1") {
		t.Errorf("String() = %q shows negative task", e2.String())
	}
}

func TestConcurrentRecordKeepsInvariants(t *testing.T) {
	r := New(64)
	const goroutines, per = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			site := fmt.Sprintf("site%d", g)
			for i := 0; i < per; i++ {
				r.Emit(site, TaskDispatched, "q1", i, "")
			}
		}(g)
	}
	wg.Wait()
	if r.Total() != goroutines*per {
		t.Fatalf("Total=%d, want %d", r.Total(), goroutines*per)
	}
	if r.Dropped() != goroutines*per-64 {
		t.Fatalf("Dropped=%d, want %d", r.Dropped(), goroutines*per-64)
	}
	// Per-site sequences within the retained window are strictly increasing.
	last := map[string]uint64{}
	for _, e := range r.Events() {
		if e.SiteSeq <= last[e.Site] {
			t.Fatalf("site %s seq went backwards: %d after %d", e.Site, e.SiteSeq, last[e.Site])
		}
		last[e.Site] = e.SiteSeq
	}
}

// TestSiteCountersBoundedByRing: every query and every task is its own
// site, so a long-lived master emits over an unbounded set of them. A site's
// counter must go when the ring overwrites the site's last retained event —
// the map then never outgrows the ring — and a site that comes back after
// that starts again at 1 without breaking per-site order among what is
// retained.
func TestSiteCountersBoundedByRing(t *testing.T) {
	const capacity = 256
	r := New(capacity)
	for i := 0; i < 100000; i++ {
		site := fmt.Sprintf("query/q%06d", i)
		r.Emit(site, QuerySubmit, "", -1, "")
		r.Emit(site, QueryDone, "", -1, "")
		if i%1000 == 999 {
			r.Emit("rescache", CacheStore, "", -1, "") // a long-lived site, seen rarely
		}
	}
	r.mu.Lock()
	n := len(r.sites)
	r.mu.Unlock()
	if n > capacity {
		t.Fatalf("%d site counters retained for a %d-event ring", n, capacity)
	}
	last := map[string]uint64{}
	for _, e := range r.Canonical() {
		if e.SiteSeq <= last[e.Site] {
			t.Fatalf("site %s: seq %d follows %d among retained events", e.Site, e.SiteSeq, last[e.Site])
		}
		last[e.Site] = e.SiteSeq
	}
	if last["rescache"] != 1 {
		t.Errorf("rescache restarted at %d, want 1: its earlier events all left the ring", last["rescache"])
	}
}
