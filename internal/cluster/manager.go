package cluster

import (
	"sort"
	"sync"
	"time"

	"repro/internal/events"
)

// ClusterManager tracks worker liveness and load. The paper deliberately
// avoids ZooKeeper-style coordination ("the number of workers is too large
// and the workers are geographically distributed", §III-C) in favor of
// periodic heartbeats into a horizontally-scalable manager; this is that
// manager for one master.
type ClusterManager struct {
	// Now is injectable for tests.
	Now func() time.Time
	// LivenessWindow marks a worker dead when no heartbeat arrives within
	// it.
	LivenessWindow time.Duration
	// Events, when set, journals worker state transitions (suspected,
	// recovered) into the flight recorder.
	Events *events.Recorder

	mu      sync.Mutex
	workers map[string]*workerState
}

type workerState struct {
	kind     WorkerKind
	lastBeat time.Time
	active   int          // tasks reported by the last heartbeat
	inflight int          // tasks dispatched by this master and not yet finished
	load     LoadSnapshot // full load snapshot from the last heartbeat
	// suspect marks a worker an unreachable dispatch flagged before its
	// heartbeat lapses; cleared by the next heartbeat.
	suspect bool
}

// livenessWindow is a master's liveness window: a worker whose last
// heartbeat is older is dead.
const livenessWindow = time.Minute

// NewClusterManager returns a manager with the given liveness window.
func NewClusterManager(window time.Duration) *ClusterManager {
	return &ClusterManager{Now: time.Now, LivenessWindow: window, workers: make(map[string]*workerState)}
}

// Heartbeat records a beat from a worker that reports only its active task
// count (no full load snapshot).
func (m *ClusterManager) Heartbeat(name string, kind WorkerKind, activeTasks int) {
	m.HeartbeatLoad(name, kind, LoadSnapshot{ActiveTasks: activeTasks})
}

// Forget removes a worker (decommission).
func (m *ClusterManager) Forget(name string) {
	m.mu.Lock()
	delete(m.workers, name)
	m.mu.Unlock()
}

// Alive reports whether a worker's heartbeat is fresh and it is not a
// suspect.
func (m *ClusterManager) Alive(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.workers[name]
	return ok && !w.suspect && m.Now().Sub(w.lastBeat) <= m.LivenessWindow
}

// AliveWorkers returns the fresh, non-suspect workers of a kind, sorted by
// name.
func (m *ClusterManager) AliveWorkers(kind WorkerKind) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.Now()
	var out []string
	for name, w := range m.workers {
		if w.kind == kind && !w.suspect && now.Sub(w.lastBeat) <= m.LivenessWindow {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// MarkSuspect flags a worker whose dispatches fail as unreachable before
// its heartbeat lapses, so retries and new placements skip it immediately —
// the liveness window alone would keep routing work at a crashed leaf for
// up to a full window. The next heartbeat clears the flag.
func (m *ClusterManager) MarkSuspect(name string) {
	m.mu.Lock()
	w, ok := m.workers[name]
	flipped := ok && !w.suspect
	if ok {
		w.suspect = true
	}
	m.mu.Unlock()
	if flipped {
		m.Events.Emit("worker/"+name, events.WorkerSuspect, "", -1, "dispatch unreachable")
	}
}

// Load returns the worker's known load: the last heartbeat's active plus
// queued tasks (LoadSnapshot pressure) plus tasks this master has dispatched
// and not yet seen finish. The scheduler breaks locality ties by this value,
// so a leaf with a deep execution queue sheds new placements to its
// replicas.
func (m *ClusterManager) Load(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.workers[name]
	if !ok {
		return 0
	}
	return w.active + w.load.QueueDepth + w.inflight
}

// AddInflight adjusts the dispatch-side load tracker.
func (m *ClusterManager) AddInflight(name string, delta int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if w, ok := m.workers[name]; ok {
		w.inflight += delta
		if w.inflight < 0 {
			w.inflight = 0
		}
	}
}
