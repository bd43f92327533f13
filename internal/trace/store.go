package trace

import (
	"sync"
	"time"
)

// StoredTrace is one finished statement as the master keeps it: the
// identifiers it is looked up by (its causal query ID and its normalized
// plan fingerprint), its timings and task counts, whether it crossed a slow
// threshold, and its span tree.
type StoredTrace struct {
	QueryID     string
	Fingerprint string
	SQL         string
	When        time.Time
	Wall        time.Duration
	Sim         time.Duration
	// Slow marks a statement that crossed a slow-query threshold: the slow
	// log is the ring's slow entries.
	Slow    bool
	Tasks   int
	Reused  int
	Backups int
	Failed  int
	Root    *Span `json:"-"`
}

// StoreSize is how many finished statements a Store keeps.
const StoreSize = 128

// Store is the master's one ring of finished traced statements, so "why was
// that query slow" stays answerable after the query is gone. When full it
// evicts the oldest entry that is not slow, or the oldest entry when every
// entry is slow: the newest entry is always kept, and so are the newest
// slow ones, all StoreSize of them while the newest entry is slow itself.
// Lookups accept either a query ID or a plan fingerprint (newest match
// wins). The zero Store is an empty ring; all methods are nil-safe.
type Store struct {
	mu        sync.Mutex
	kept      []StoredTrace // oldest first
	slowTotal int64
}

// Add keeps one finished statement, evicting as the Store describes when
// the ring is full. Statements without a root span are ignored.
func (st *Store) Add(t StoredTrace) {
	if st == nil || t.Root == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if t.Slow {
		st.slowTotal++
	}
	if len(st.kept) == StoreSize {
		victim := 0
		for i, k := range st.kept {
			if !k.Slow {
				victim = i
				break
			}
		}
		st.kept = append(st.kept[:victim], st.kept[victim+1:]...)
	}
	st.kept = append(st.kept, t)
}

// Traces returns the kept statements, newest first.
func (st *Store) Traces() []StoredTrace {
	return st.newest(false)
}

// Slow returns the kept slow statements, newest first: the slow-query log.
func (st *Store) Slow() []StoredTrace {
	return st.newest(true)
}

// SlowTotal is how many slow statements were ever added, evicted ones
// included.
func (st *Store) SlowTotal() int64 {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.slowTotal
}

func (st *Store) newest(slowOnly bool) []StoredTrace {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []StoredTrace
	for i := len(st.kept) - 1; i >= 0; i-- {
		if !slowOnly || st.kept[i].Slow {
			out = append(out, st.kept[i])
		}
	}
	return out
}

// Get returns the newest kept statement whose query ID or plan fingerprint
// equals id.
func (st *Store) Get(id string) (StoredTrace, bool) {
	for _, t := range st.Traces() {
		if t.QueryID == id || t.Fingerprint == id {
			return t, true
		}
	}
	return StoredTrace{}, false
}
