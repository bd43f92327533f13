package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// QueryProgress is the live execution state of one in-flight query — the
// master's answer to "what is the cluster doing right now". Snapshots are
// plain values; `\watch`, System.ActiveQueries and /debug/queries render
// them.
type QueryProgress struct {
	ID          string        `json:"id"`
	SQL         string        `json:"sql"`
	Fingerprint string        `json:"fingerprint"`
	Priority    string        `json:"priority"`
	State       string        `json:"state"` // "queued" | "running"
	Started     time.Time     `json:"started"`
	QueueWait   time.Duration `json:"queueWait"`

	TasksPlanned    int `json:"tasksPlanned"`
	TasksDispatched int `json:"tasksDispatched"`
	TasksDone       int `json:"tasksDone"`
	TasksRetried    int `json:"tasksRetried"`
	TasksFailed     int `json:"tasksFailed"`

	// Rows counts result rows merged at the master so far.
	Rows int64 `json:"rows"`
}

// progressHandle mutates one query's live entry. A nil handle is a no-op,
// so the master's hot path never branches on whether progress tracking is
// wired.
type progressHandle struct {
	reg *ProgressRegistry
	id  string
}

// update applies fn to the entry under the registry lock.
func (h *progressHandle) update(fn func(*QueryProgress)) {
	if h == nil || h.reg == nil {
		return
	}
	h.reg.mu.Lock()
	if p, ok := h.reg.active[h.id]; ok {
		fn(p)
	}
	h.reg.mu.Unlock()
}

// ProgressRegistry tracks every query between admission and completion.
// The zero value is unusable; a nil registry is a valid no-op.
type ProgressRegistry struct {
	mu     sync.Mutex
	active map[string]*QueryProgress
}

// NewProgressRegistry builds an empty registry.
func NewProgressRegistry() *ProgressRegistry {
	return &ProgressRegistry{active: make(map[string]*QueryProgress)}
}

// Begin registers an in-flight query and returns its mutation handle.
func (r *ProgressRegistry) Begin(p QueryProgress) *progressHandle {
	if r == nil {
		return nil
	}
	if p.Started.IsZero() {
		p.Started = time.Now()
	}
	r.mu.Lock()
	cp := p
	r.active[p.ID] = &cp
	r.mu.Unlock()
	return &progressHandle{reg: r, id: p.ID}
}

// End removes a finished query.
func (r *ProgressRegistry) End(id string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.active, id)
	r.mu.Unlock()
}

// Active snapshots the in-flight queries, oldest query ID first.
func (r *ProgressRegistry) Active() []QueryProgress {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]QueryProgress, 0, len(r.active))
	for _, p := range r.active {
		out = append(out, *p)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RenderProgress formats active queries as the `\watch` / /debug/queries
// table.
func RenderProgress(active []QueryProgress) string {
	if len(active) == 0 {
		return "no active queries\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %-7s %-6s %5s %5s %5s %5s %8s  %s\n",
		"ID", "STATE", "CLASS", "PLAN", "DISP", "DONE", "RETRY", "ROWS", "SQL")
	for _, p := range active {
		sql := p.SQL
		if len(sql) > 48 {
			sql = sql[:45] + "..."
		}
		fmt.Fprintf(&sb, "%-8s %-7s %-6s %5d %5d %5d %5d %8d  %s\n",
			p.ID, p.State, p.Priority,
			p.TasksPlanned, p.TasksDispatched, p.TasksDone, p.TasksRetried,
			p.Rows, sql)
	}
	return sb.String()
}
