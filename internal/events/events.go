// Package events is Feisu's cluster flight recorder: an always-on, bounded
// journal of the structured decisions a query passes through — admission
// (queued / admitted / shed), scheduling (task scheduled / dispatched /
// collected), recovery (retry / partial result), the semantic result cache
// (hit / subsumed / store / evict / invalidate), worker state transitions,
// ingest invalidations, and bridged chaos-plane faults.
//
// Events carry causal identifiers (query ID, task ordinal) plus both a
// wall-clock timestamp and, where known, the simulated-time charge of the
// step, so an incident timeline can be read either in real time or in the
// cost model's units.
//
// Determinism is the design constraint carried over from internal/chaos:
// every event names an emitting *site* and receives a per-site sequence
// number under the recorder's lock. Sites are chosen fine-grained enough
// (one per task lifecycle, one per chaos decision stream, one per cache)
// that the (site, seq)-sorted journal of a seeded run is reproducible even
// though goroutine interleaving varies — the property the flight-recorder
// determinism test locks in.
//
// The recorder itself is a fixed-capacity ring guarded by a mutex whose
// critical section is a few stores (assign sequence numbers, copy one
// struct); when the ring wraps, the oldest entry is overwritten and a drop
// counter advances so readers know the journal is truncated. All methods
// are nil-safe and Record is a no-op while the recorder is disabled, so
// instrumented code never needs to guard call sites.
package events

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies an event. Kinds are dotted component.action names so a
// journal line reads as a sentence and prefix filters stay cheap.
type Kind string

// The event taxonomy. Emission sites are noted per group.
const (
	// Query lifecycle (master).
	QuerySubmit   Kind = "query.submit"   // query arrived at the master
	QueryQueued   Kind = "query.queued"   // admission made it wait
	QueryAdmitted Kind = "query.admitted" // admission granted a slot
	QueryShed     Kind = "query.shed"     // admission rejected it
	QueryFollowed Kind = "query.followed" // answered by an identical executing statement (Detail = its query ID)
	QueryDone     Kind = "query.done"     // finished (Detail carries row count)
	QueryError    Kind = "query.error"    // finished with an error

	// Task lifecycle (master). Every task journals one task.done; the
	// scheduled → dispatched → retry → collected chain (and the backup's
	// leaf.exec) only for a task that retried or failed.
	TaskScheduled  Kind = "task.scheduled" // placement decided (Detail = leaf)
	TaskDispatched Kind = "task.dispatched"
	TaskCollected  Kind = "task.collected"
	TaskRetry      Kind = "task.retry"
	TaskPartial    Kind = "task.partial" // gave up; query proceeds partial
	TaskDone       Kind = "task.done"    // terminal: leaf, rows, sim and the attempt history

	// Semantic result cache.
	CacheHit        Kind = "rescache.hit"
	CacheSubsumed   Kind = "rescache.subsumed"
	CacheStore      Kind = "rescache.store"
	CacheEvict      Kind = "rescache.evict"
	CacheInvalidate Kind = "rescache.invalidate"

	// Leaf execution of a backup task (leaf servers; Sim carries the task's
	// execution bill).
	LeafExec Kind = "leaf.exec"

	// Worker state transitions (cluster manager).
	WorkerSuspect   Kind = "worker.suspect"
	WorkerRecovered Kind = "worker.recovered"

	// Ingest.
	IngestInvalidate Kind = "ingest.invalidate"

	// Repartition shuffle (master orchestration + reducer commits; Sim on
	// map/reduce events carries the stage's execution bill).
	ShuffleMap    Kind = "shuffle.map"    // one map task finished on a leaf
	ShuffleCommit Kind = "shuffle.commit" // reducer committed a map task's first message
	ShuffleReduce Kind = "shuffle.reduce" // reducer finished one partition
	ShuffleSpill  Kind = "shuffle.spill"  // operator exceeded its memory grant

	// Chaos-plane bridge: faults arrive as "chaos.<kind>" (kill, restart,
	// straggle, recover, partition, heal, drop, delay, read-err, corrupt).
	ChaosPrefix = "chaos."
)

// Event is one journal entry.
type Event struct {
	// Seq is the global arrival index (1-based, monotonic). It orders the
	// journal as it happened on this host; it is NOT stable across runs.
	Seq uint64 `json:"seq"`
	// Site names the emitting decision stream; SiteSeq is the event's
	// 1-based position within it (counted anew once the ring retains none
	// of the site's events). The (Site, SiteSeq) order of a seeded run is
	// deterministic.
	Site    string `json:"site"`
	SiteSeq uint64 `json:"siteSeq"`

	Kind  Kind   `json:"kind"`
	Query string `json:"query,omitempty"` // causal query ID ("q000012")
	Task  int    `json:"task"`            // task ordinal, -1 when not task-scoped

	Wall time.Time     `json:"wall"`          // wall-clock timestamp
	Sim  time.Duration `json:"sim,omitempty"` // simulated-time charge, when known

	Detail string `json:"detail,omitempty"`
}

// String renders one journal line:
//
//	#42 task/q000003#1+2 task.retry q000003 t1 sim=1.2ms leaf2: chaos: read error
func (e Event) String() string {
	s := fmt.Sprintf("#%d %s+%d %s", e.Seq, e.Site, e.SiteSeq, e.Kind)
	if e.Query != "" {
		s += " " + e.Query
	}
	if e.Task >= 0 {
		s += fmt.Sprintf(" t%d", e.Task)
	}
	if e.Sim > 0 {
		s += fmt.Sprintf(" sim=%s", e.Sim)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Recorder is the bounded journal. The zero value is unusable; build one
// with New. A nil *Recorder is a valid, always-off recorder.
type Recorder struct {
	enabled atomic.Bool
	total   atomic.Uint64 // events accepted (including overwritten)
	dropped atomic.Uint64 // events overwritten by ring wrap

	mu    sync.Mutex
	ring  []Event
	next  int  // ring slot for the next event
	wrap  bool // ring has wrapped at least once
	sites map[string]uint64
}

// DefaultCapacity is the journal size used when New is given n <= 0.
const DefaultCapacity = 4096

// New builds an enabled recorder holding the last n events (DefaultCapacity
// when n <= 0).
func New(n int) *Recorder {
	if n <= 0 {
		n = DefaultCapacity
	}
	r := &Recorder{
		ring:  make([]Event, n),
		sites: make(map[string]uint64),
	}
	r.enabled.Store(true)
	return r
}

// Enabled reports whether the recorder is accepting events (false on nil).
func (r *Recorder) Enabled() bool {
	return r != nil && r.enabled.Load()
}

// SetEnabled flips recording on or off. Disabled recorders drop events
// before taking the lock — the state read is a single atomic load, which is
// what the flightrec overhead experiment measures against.
func (r *Recorder) SetEnabled(on bool) {
	if r != nil {
		r.enabled.Store(on)
	}
}

// Record journals one event, assigning its global and per-site sequence
// numbers and stamping Wall if unset. Safe on nil and while disabled (both
// no-ops).
func (r *Recorder) Record(e Event) {
	if r == nil || !r.enabled.Load() {
		return
	}
	if e.Wall.IsZero() {
		e.Wall = time.Now()
	}
	if e.Site == "" {
		e.Site = "unknown"
	}
	r.mu.Lock()
	if r.wrap {
		r.dropped.Add(1)
		// A site whose last retained event is being overwritten has nothing
		// left to order against: drop its counter, or the map grows by one
		// entry per query and per task for the life of the process.
		if old := r.ring[r.next]; r.sites[old.Site] == old.SiteSeq {
			delete(r.sites, old.Site)
		}
	}
	r.sites[e.Site]++
	e.SiteSeq = r.sites[e.Site]
	e.Seq = r.total.Add(1)
	r.ring[r.next] = e
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.wrap = true
	}
	r.mu.Unlock()
}

// Emit is the common-case Record: site, kind, causal IDs and a detail
// string. Pass task < 0 for query-scoped events.
func (r *Recorder) Emit(site string, kind Kind, query string, task int, detail string) {
	r.Record(Event{Site: site, Kind: kind, Query: query, Task: task, Detail: detail})
}

// EmitSim is Emit with a simulated-time charge attached.
func (r *Recorder) EmitSim(site string, kind Kind, query string, task int, sim time.Duration, detail string) {
	r.Record(Event{Site: site, Kind: kind, Query: query, Task: task, Sim: sim, Detail: detail})
}

// Events returns the retained journal in arrival (global Seq) order,
// oldest first. Nil recorders return nil.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrap {
		return append([]Event(nil), r.ring[:r.next]...)
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Canonical returns the retained journal sorted by (Site, SiteSeq) — the
// run-to-run reproducible order for a seeded schedule, independent of how
// goroutines interleaved their appends.
func (r *Recorder) Canonical() []Event {
	evs := r.Events()
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Site != evs[j].Site {
			return evs[i].Site < evs[j].Site
		}
		return evs[i].SiteSeq < evs[j].SiteSeq
	})
	return evs
}

// ForQuery returns the retained events carrying the given query ID, in
// arrival order.
func (r *Recorder) ForQuery(id string) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Query == id {
			out = append(out, e)
		}
	}
	return out
}

// Total returns how many events were ever accepted (0 on nil).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total.Load()
}

// Dropped returns how many accepted events were overwritten by ring wrap
// (0 on nil).
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// TaskSite names the per-task decision stream used for task lifecycle
// events: every task's scheduled → dispatched → retry* → collected
// chain is causally ordered within its own site, which keeps the canonical
// journal deterministic even when sibling tasks race.
func TaskSite(query string, ordinal int) string {
	return "task/" + query + "#" + strconv.Itoa(ordinal)
}
