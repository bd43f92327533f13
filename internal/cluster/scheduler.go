package cluster

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/plan"
	"repro/internal/transport"
)

// Locator resolves a partition path to the nodes holding a replica of it,
// in a slice the caller only reads. *storage.Router implements it; tests
// inject fixed placements.
type Locator interface {
	Locations(path string) []string
}

// JobScheduler creates scheduling plans: it places each sub-plan on the
// leaf that holds the data when available, otherwise on a replica holder,
// otherwise on the alive leaf with the lowest network distance to the data
// and the lightest load (paper §III-B: "Feisu always schedules a task to
// the leaf server that contains the data if the server is available ...
// otherwise to an available server that has a low network transfer
// overhead"). Placement is load-aware: ties at equal locality break by the
// live heartbeat load (active + queued tasks plus this master's in-flight
// dispatches), and SlotsPerLeaf caps how many concurrent tasks a leaf may
// be assigned — a saturated holder sheds new placements to a replica
// instead of queueing blind behind its backlog.
type JobScheduler struct {
	Manager *ClusterManager
	Locator Locator
	Topo    *transport.Topology
	// SlotsPerLeaf caps a leaf's concurrent task load at placement time;
	// <=0 means unbounded. When every candidate is saturated the cap is
	// waived and the least-loaded candidate is used: the admission queue
	// upstream, not placement failure, is the overload defense.
	SlotsPerLeaf int
	// LocalityOff disables data-locality placement (ablation benchmark):
	// tasks land on uniformly random alive leaves.
	LocalityOff bool
	// Affinity enables cache-affinity placement: tasks for the same
	// partition land on the same leaf (rendezvous hashing over the open
	// candidates, data holders preferred), so leaf-local footer and SSD
	// caches keep hitting across repeated queries. When every candidate is
	// saturated (the slot cap is waived) the scheduler falls through to the
	// load-aware path — load wins over affinity under pressure.
	Affinity bool

	rngMu sync.Mutex
	rng   *rand.Rand
}

// Place picks a leaf for the task, excluding the given nodes (used when
// issuing backup tasks). It returns an error when no leaf is alive.
//
// Selection order:
//  1. among candidates under the slot cap (all candidates when every one is
//     saturated): a live data holder with the lowest load, ties by name;
//  2. otherwise the candidate minimizing (network distance to the nearest
//     holder, load, name).
func (s *JobScheduler) Place(task plan.TaskSpec, exclude map[string]bool) (string, error) {
	alive := s.Manager.AliveWorkers(KindLeaf) // a fresh slice: filtered in place
	candidates := alive[:0]
	for _, l := range alive {
		if !exclude[l] {
			candidates = append(candidates, l)
		}
	}
	return s.place(task, candidates)
}

// place is Place over the candidate leaves, which it only reads.
func (s *JobScheduler) place(task plan.TaskSpec, candidates []string) (string, error) {
	if len(candidates) == 0 {
		return "", fmt.Errorf("cluster: no available leaf server for %s", task.Partition.Path)
	}
	if s.LocalityOff {
		s.rngMu.Lock()
		if s.rng == nil {
			s.rng = rand.New(rand.NewSource(1))
		}
		pick := candidates[s.rng.Intn(len(candidates))]
		s.rngMu.Unlock()
		return pick, nil
	}

	// Per-leaf slots: restrict to leaves with spare capacity; when the whole
	// candidate set is saturated, waive the cap (see SlotsPerLeaf).
	pool := candidates
	capWaived := false
	if s.SlotsPerLeaf > 0 {
		open := make([]string, 0, len(candidates))
		for _, c := range candidates {
			if s.Manager.Load(c) < s.SlotsPerLeaf {
				open = append(open, c)
			}
		}
		if len(open) > 0 {
			pool = open
		} else {
			capWaived = true
		}
	}

	holders := s.Locator.Locations(task.Partition.Path)

	// Cache affinity: the same partition consistently maps to the same leaf
	// via rendezvous hashing over the eligible pool (holders preferred), so
	// repeated queries re-hit that leaf's warmed caches. A saturated fleet
	// waives the slot cap — then load-aware placement below takes over.
	if s.Affinity && !capWaived {
		if pick, ok := affinityPick(task.Partition.Path, pool, holders); ok {
			return pick, nil
		}
	}
	{
		// First choice: a live data holder with capacity, least loaded;
		// equal loads break by name so placement is deterministic.
		best, bestLoad := "", 0
		for _, h := range pool {
			if !slices.Contains(holders, h) {
				continue
			}
			l := s.Manager.Load(h)
			if best == "" || l < bestLoad || (l == bestLoad && h < best) {
				best, bestLoad = h, l
			}
		}
		if best != "" {
			return best, nil
		}
	}

	// Fallback: minimize (network distance to nearest holder, load, name).
	best := pool[0]
	bestDist, bestLoad := s.distance(best, holders), s.Manager.Load(best)
	for _, c := range pool[1:] {
		d, l := s.distance(c, holders), s.Manager.Load(c)
		if d < bestDist || (d == bestDist && (l < bestLoad || (l == bestLoad && c < best))) {
			best, bestDist, bestLoad = c, d, l
		}
	}
	return best, nil
}

// distance returns the smallest topology distance from node to any holder;
// location-free data (no holders) is distance 0 from everyone.
func (s *JobScheduler) distance(node string, holders []string) int {
	if len(holders) == 0 {
		return 0
	}
	best := 1 << 30
	for _, h := range holders {
		if d := s.Topo.Distance(node, h); d < best {
			best = d
		}
	}
	return best
}

// affinityPick rendezvous-hashes the partition path against each eligible
// leaf and returns the highest-scoring one. Restricting the domain to live
// data holders (when any are in the pool) keeps affinity and locality
// aligned; otherwise the whole pool participates, so the mapping stays
// stable as long as membership does and moves only 1/n of partitions when
// a leaf joins or leaves.
func affinityPick(path string, pool, holders []string) (string, bool) {
	domain := pool
	if len(holders) > 0 {
		hp := make([]string, 0, len(pool))
		for _, c := range pool {
			if slices.Contains(holders, c) {
				hp = append(hp, c)
			}
		}
		if len(hp) > 0 {
			domain = hp
		}
	}
	if len(domain) == 0 {
		return "", false
	}
	best, bestScore := "", uint64(0)
	for _, c := range domain {
		h := fnv.New64a()
		h.Write([]byte(path))
		h.Write([]byte{'|'})
		h.Write([]byte(c))
		if sc := h.Sum64(); best == "" || sc > bestScore || (sc == bestScore && c < best) {
			best, bestScore = c, sc
		}
	}
	return best, true
}

// PlanAll assigns every task, spreading load as it goes. The provisional
// per-leaf in-flight counts stay charged until the caller returns them
// (ReleaseTask, once per task) — they are the dispatch-side half of the
// per-leaf slot accounting, so concurrent queries planning against the same
// fleet see each other's assignments. On error nothing stays charged. The
// alive leaves are read once, for the whole statement, and are every task's
// candidates: nothing is excluded from a first placement.
func (s *JobScheduler) PlanAll(tasks []plan.TaskSpec) (map[int]string, error) {
	assign := make(map[int]string, len(tasks))
	alive := s.Manager.AliveWorkers(KindLeaf)
	for _, t := range tasks {
		leaf, err := s.place(t, alive)
		if err != nil {
			for _, l := range assign {
				s.Manager.AddInflight(l, -1)
			}
			return nil, err
		}
		// Count the pending dispatch so subsequent placements spread and
		// other queries' slot checks see this one's claim.
		assign[t.Ordinal] = leaf
		s.Manager.AddInflight(leaf, 1)
	}
	return assign, nil
}

// ReleaseTask returns one task's placement slot (call once per assigned
// task when its terminal outcome is known).
func (s *JobScheduler) ReleaseTask(leaf string) {
	if leaf != "" {
		s.Manager.AddInflight(leaf, -1)
	}
}
