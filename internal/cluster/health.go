package cluster

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/events"
)

// LoadSnapshot is the load a worker reports with each heartbeat: scheduler
// pressure (active tasks, queue depth) plus the pressure gauges of the
// node's SmartIndex and SSD cache. The master aggregates snapshots into a
// ClusterHealth view so operators can see per-leaf index/cache pressure
// without attaching a tracer to each request.
type LoadSnapshot struct {
	// ActiveTasks is the number of sub-plans executing right now.
	ActiveTasks int
	// QueueDepth is the number of tasks admitted but waiting for an
	// execution slot (stems bound concurrent leaf calls by Parallelism).
	QueueDepth int
	// TasksDone is the lifetime count of completed sub-plans.
	TasksDone int64

	// SmartIndex pressure: cached bitmap count and memory vs. budget.
	IndexEntries int64
	IndexBytes   int64
	IndexBudget  int64 // <=0 means unbounded

	// SSD-cache pressure.
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	CacheBytes     int64
	CacheCapacity  int64 // <=0 means the cache is disabled
}

// CacheHitRatio returns hits / (hits + misses), or 0 with no traffic.
func (s LoadSnapshot) CacheHitRatio() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// IndexLoadReporter is implemented by index managers (core.SmartIndex) that
// can report their memory pressure. Defined here so the leaf can discover
// it via a type assertion without the index package importing cluster.
type IndexLoadReporter interface {
	IndexLoad() (entries, bytes, budget int64)
}

// CacheLoadReporter is implemented by caching readers (cache.Reader) that
// can report hit/eviction pressure.
type CacheLoadReporter interface {
	CacheLoad() (hits, misses, evictions, bytes, capacity int64)
}

// NodeState classifies a worker by heartbeat freshness.
type NodeState int

// Node states: a worker is alive while beats arrive within half the
// liveness window, degraded while the last beat is older than that but
// still inside the window, and dead past the window.
const (
	StateAlive NodeState = iota
	StateDegraded
	StateDead
)

// String names the state.
func (s NodeState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateDegraded:
		return "degraded"
	default:
		return "dead"
	}
}

// NodeHealth is one worker's entry in the cluster health view.
type NodeHealth struct {
	Name  string
	Kind  WorkerKind
	State NodeState
	// Stale marks Load as last-known rather than live: the snapshot
	// predates the freshness horizon (the node is degraded or dead), so
	// its gauges must not be read as current values.
	Stale bool
	// Age is how long ago the last heartbeat arrived.
	Age time.Duration
	// Inflight is the number of tasks this master has dispatched to the
	// worker and not yet seen finish.
	Inflight int
	Load     LoadSnapshot
}

// ClusterHealth is the master's aggregate view of the fleet.
type ClusterHealth struct {
	Nodes                 []NodeHealth // sorted by name
	Alive, Degraded, Dead int
	// Admission is the master's admission-queue state (zero/disabled when
	// the view comes straight from a ClusterManager or admission is off).
	Admission AdmissionSnapshot
}

// Healthy reports whether every known node is alive.
func (h ClusterHealth) Healthy() bool {
	return h.Degraded == 0 && h.Dead == 0
}

// HeartbeatLoad records a beat carrying a full load snapshot.
func (m *ClusterManager) HeartbeatLoad(name string, kind WorkerKind, load LoadSnapshot) {
	m.mu.Lock()
	w, ok := m.workers[name]
	if !ok {
		w = &workerState{}
		m.workers[name] = w
	}
	recovered := w.suspect
	w.kind = kind
	w.lastBeat = m.Now()
	w.active = load.ActiveTasks
	w.load = load
	w.suspect = false // a beat proves the worker reachable again
	m.mu.Unlock()
	if recovered {
		m.Events.Emit("worker/"+name, events.WorkerRecovered, "", -1, "heartbeat resumed")
	}
}

// Health returns the aggregate fleet view at the current time.
func (m *ClusterManager) Health() ClusterHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.Now()
	h := ClusterHealth{}
	for name, w := range m.workers {
		age := now.Sub(w.lastBeat)
		state := StateAlive
		switch {
		case w.suspect || age > m.LivenessWindow:
			state = StateDead
		case age > m.LivenessWindow/2:
			state = StateDegraded
		}
		switch state {
		case StateAlive:
			h.Alive++
		case StateDegraded:
			h.Degraded++
		default:
			h.Dead++
		}
		h.Nodes = append(h.Nodes, NodeHealth{
			Name:     name,
			Kind:     w.kind,
			State:    state,
			Stale:    state != StateAlive,
			Age:      age,
			Inflight: w.inflight,
			Load:     w.load,
		})
	}
	sort.Slice(h.Nodes, func(i, j int) bool { return h.Nodes[i].Name < h.Nodes[j].Name })
	return h
}

// Render formats the health view as the `\top`-style dashboard table.
func (h ClusterHealth) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cluster: %d alive, %d degraded, %d dead\n", h.Alive, h.Degraded, h.Dead)
	sb.WriteString(h.Admission.Render())
	fmt.Fprintf(&sb, "%-8s %-5s %-9s %6s %6s %6s %10s %12s %7s %9s %s\n",
		"NODE", "KIND", "STATE", "ACTIVE", "QUEUE", "INFLT", "TASKS", "IDX_BYTES", "IDX_N", "CACHE_HIT", "AGE")
	for _, n := range h.Nodes {
		state := n.State.String()
		if n.Stale {
			state += "*"
		}
		idxBytes := fmt.Sprintf("%d", n.Load.IndexBytes)
		if n.Load.IndexBudget > 0 {
			idxBytes = fmt.Sprintf("%d/%d", n.Load.IndexBytes, n.Load.IndexBudget)
		}
		hit := "-"
		if n.Load.CacheHits+n.Load.CacheMisses > 0 {
			hit = fmt.Sprintf("%.1f%%", 100*n.Load.CacheHitRatio())
		}
		fmt.Fprintf(&sb, "%-8s %-5s %-9s %6d %6d %6d %10d %12s %7d %9s %s\n",
			n.Name, n.Kind, state, n.Load.ActiveTasks, n.Load.QueueDepth, n.Inflight,
			n.Load.TasksDone, idxBytes, n.Load.IndexEntries, hit,
			n.Age.Round(time.Millisecond))
	}
	if len(h.Nodes) == 0 {
		sb.WriteString("(no workers have heartbeated yet)\n")
	}
	return sb.String()
}
