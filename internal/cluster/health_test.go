package cluster

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
)

// TestHealthTransitions: with an injected clock, a worker moves
// alive → degraded → dead as its last heartbeat ages past half the liveness
// window and then past the whole window, and its load gauges are marked
// stale (last-known) rather than presented as live once it leaves the
// alive state.
func TestHealthTransitions(t *testing.T) {
	now := time.Unix(1000, 0)
	m := NewClusterManager(10 * time.Second)
	m.Now = func() time.Time { return now }

	m.HeartbeatLoad("leaf0", KindLeaf, LoadSnapshot{ActiveTasks: 3, IndexBytes: 4096, CacheHits: 7, CacheMisses: 3})
	m.HeartbeatLoad("stem0", KindStem, LoadSnapshot{ActiveTasks: 1, QueueDepth: 2})

	h := m.Health()
	if h.Alive != 2 || h.Degraded != 0 || h.Dead != 0 {
		t.Fatalf("fresh cluster: %+v", h)
	}
	if !h.Healthy() {
		t.Error("fresh cluster should be Healthy")
	}
	if h.Nodes[0].Name != "leaf0" || h.Nodes[1].Name != "stem0" {
		t.Fatalf("nodes not sorted by name: %+v", h.Nodes)
	}
	if h.Nodes[0].Stale {
		t.Error("fresh node must not be stale")
	}
	if got := h.Nodes[0].Load.CacheHitRatio(); got != 0.7 {
		t.Errorf("CacheHitRatio = %v, want 0.7", got)
	}

	// stem0 keeps beating; leaf0 goes silent.
	now = now.Add(6 * time.Second) // leaf0 age 6s > window/2 = 5s
	m.HeartbeatLoad("stem0", KindStem, LoadSnapshot{ActiveTasks: 0})
	h = m.Health()
	if h.Alive != 1 || h.Degraded != 1 || h.Dead != 0 {
		t.Fatalf("after %v: alive=%d degraded=%d dead=%d", 6*time.Second, h.Alive, h.Degraded, h.Dead)
	}
	leaf := h.Nodes[0]
	if leaf.State != StateDegraded || !leaf.Stale {
		t.Errorf("leaf0 = state %v stale %v, want degraded+stale", leaf.State, leaf.Stale)
	}
	// Degraded gauges are last-known, not zeroed.
	if leaf.Load.ActiveTasks != 3 || leaf.Load.IndexBytes != 4096 {
		t.Errorf("degraded load should hold last snapshot: %+v", leaf.Load)
	}
	if h.Healthy() {
		t.Error("degraded cluster must not be Healthy")
	}

	now = now.Add(5 * time.Second) // leaf0 age 11s > window
	h = m.Health()
	leaf = h.Nodes[0]
	if leaf.State != StateDead || !leaf.Stale {
		t.Errorf("leaf0 = state %v stale %v, want dead+stale", leaf.State, leaf.Stale)
	}
	if h.Dead != 1 {
		t.Errorf("Dead = %d", h.Dead)
	}
	if m.Alive("leaf0") {
		t.Error("Alive must agree with Health: leaf0 is dead")
	}

	// A new beat resurrects it.
	m.HeartbeatLoad("leaf0", KindLeaf, LoadSnapshot{ActiveTasks: 1})
	h = m.Health()
	if h.Nodes[0].State != StateAlive || h.Nodes[0].Stale {
		t.Errorf("after resurrection: %+v", h.Nodes[0])
	}
}

// TestHealthLegacyHeartbeat: the active-tasks-only Heartbeat entry point
// still feeds the health view.
func TestHealthLegacyHeartbeat(t *testing.T) {
	m := NewClusterManager(time.Minute)
	m.Heartbeat("leaf0", KindLeaf, 5)
	h := m.Health()
	if len(h.Nodes) != 1 || h.Nodes[0].Load.ActiveTasks != 5 {
		t.Fatalf("Health = %+v", h)
	}
}

// TestHealthRender smoke-checks the \top table: every node appears with
// its state, and stale nodes are flagged.
func TestHealthRender(t *testing.T) {
	now := time.Unix(0, 0)
	m := NewClusterManager(10 * time.Second)
	m.Now = func() time.Time { return now }
	m.HeartbeatLoad("leaf0", KindLeaf, LoadSnapshot{ActiveTasks: 2, CacheHits: 1, CacheMisses: 1})
	now = now.Add(20 * time.Second)
	m.HeartbeatLoad("leaf1", KindLeaf, LoadSnapshot{})
	out := m.Health().Render()
	if !strings.Contains(out, "leaf0") || !strings.Contains(out, "leaf1") {
		t.Fatalf("Render missing nodes:\n%s", out)
	}
	if !strings.Contains(out, "dead*") {
		t.Errorf("dead node should be flagged stale:\n%s", out)
	}
	if !strings.Contains(out, "50.0%") {
		t.Errorf("hit ratio missing:\n%s", out)
	}
}

// TestLeafLoadSnapshot: a leaf wired with a SmartIndex and an SSD cache
// reports their gauges through the reporter interfaces, and heartbeats
// deliver them into the master's health view end to end.
func TestLeafLoadSnapshot(t *testing.T) {
	tc := newTestCluster(t, 2, 0, 4, nil)
	// Re-wrap leaf0's reader with a cache and give its index a budget so
	// the gauges are non-trivial.
	leaf := tc.leaves[0]
	cached := cache.NewReader(leaf.Reader, cache.Options{CapacityBytes: 1 << 20, Prefixes: []string{"/"}})
	leaf.Reader = cached
	leaf.Index = core.New(core.Options{MemoryBudget: 1 << 16})

	if _, _, err := tc.master.Submit(context.Background(), "SELECT COUNT(*) FROM logs WHERE v = 3", QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	snap := leaf.LoadSnapshot()
	if snap.TasksDone == 0 {
		t.Error("TasksDone = 0 after a query")
	}
	if snap.IndexBudget != 1<<16 {
		t.Errorf("IndexBudget = %d", snap.IndexBudget)
	}
	if snap.IndexEntries == 0 || snap.IndexBytes == 0 {
		t.Errorf("index gauges empty after a filtered scan: %+v", snap)
	}
	if snap.CacheCapacity != 1<<20 {
		t.Errorf("CacheCapacity = %d", snap.CacheCapacity)
	}
	if snap.CacheHits+snap.CacheMisses == 0 {
		t.Errorf("cache saw no traffic: %+v", snap)
	}

	// The heartbeat carries the snapshot to the master.
	if err := leaf.HeartbeatOnce(context.Background(), "master"); err != nil {
		t.Fatal(err)
	}
	h := tc.master.Manager.Health()
	var got *NodeHealth
	for i := range h.Nodes {
		if h.Nodes[i].Name == leaf.Name {
			got = &h.Nodes[i]
		}
	}
	if got == nil {
		t.Fatalf("leaf %s missing from health view: %+v", leaf.Name, h.Nodes)
	}
	if got.Load.IndexEntries != snap.IndexEntries || got.Load.CacheMisses != snap.CacheMisses {
		t.Errorf("health view load %+v != leaf snapshot %+v", got.Load, snap)
	}
}

// TestHealthConcurrent hammers heartbeats and health reads from many
// goroutines; run under -race this is the data-race check for the
// heartbeat-carried load path.
func TestHealthConcurrent(t *testing.T) {
	m := NewClusterManager(time.Minute)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := []string{"leaf0", "leaf1", "stem0", "stem1"}[i]
			kind := KindLeaf
			if i >= 2 {
				kind = KindStem
			}
			for j := 0; j < 500; j++ {
				m.HeartbeatLoad(name, kind, LoadSnapshot{ActiveTasks: j, IndexBytes: int64(j)})
			}
		}(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h := m.Health()
				_ = h.Render()
				_ = h.Healthy()
			}
		}()
	}
	wg.Wait()
	if h := m.Health(); len(h.Nodes) != 4 {
		t.Errorf("nodes = %d, want 4", len(h.Nodes))
	}
}
