package cluster

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/plan"
)

// JobManager owns the catalog and running-job state, and lets identical
// concurrent statements share one execution (paper §III-C: "job manager tries
// to reuse other running job's task result if tasks are identical" — two
// tasks are identical only when their whole statements are, so the unit
// shared is the statement).
type JobManager struct {
	mu      sync.Mutex
	catalog plan.MapCatalog
	// epoch counts invalidations (catalog changes and partition rewrites);
	// moved maps a table to the epoch of its latest one. A plan bound while
	// the epoch read e is current for as long as none of its tables has
	// moved[t] > e.
	epoch uint64
	moved map[string]uint64
	// flights maps a statement key to its executing leader.
	flights map[string]*flight

	// Reused counts tasks followers did not execute.
	Reused metrics.Counter
}

// flight is one executing statement that identical submissions wait on
// instead of executing.
type flight struct {
	key    string
	leader string // the executing statement's query ID
	done   chan struct{}
	// followers counts the statements still waiting on or collecting from
	// the flight, guarded by JobManager.mu. res and tasks are written by the
	// leader before done closes; res stays nil when the leader had nothing
	// to share.
	followers int
	res       *exec.Result
	tasks     int
}

// NewJobManager returns an empty manager.
func NewJobManager() *JobManager {
	return &JobManager{
		catalog: plan.MapCatalog{},
		moved:   make(map[string]uint64),
		flights: make(map[string]*flight),
	}
}

// RegisterTable installs or replaces a catalog entry and returns the op for
// replication to backup masters.
func (j *JobManager) RegisterTable(meta *plan.TableMeta) catalogOp {
	j.mu.Lock()
	j.catalog[meta.Name] = meta
	j.epoch++
	j.moved[meta.Name] = j.epoch
	j.mu.Unlock()
	return catalogOp{Table: meta}
}

// invalidate records that a table's data changed under an unchanged catalog
// entry (a partition file rewritten in place).
func (j *JobManager) invalidate(table string) {
	j.mu.Lock()
	j.epoch++
	j.moved[table] = j.epoch
	j.mu.Unlock()
}

// epochNow reads the invalidation epoch; read it before binding a plan.
func (j *JobManager) epochNow() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.epoch
}

// current reports whether no table the plan reads has been invalidated
// since the epoch read boundAt.
func (j *JobManager) current(p *plan.PhysicalPlan, boundAt uint64) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tablesEpochLocked(p) <= boundAt
}

// tablesEpochLocked returns the latest invalidation among the tables the
// plan reads.
func (j *JobManager) tablesEpochLocked(p *plan.PhysicalPlan) uint64 {
	var latest uint64
	for _, bt := range p.A.Tables {
		if e := j.moved[bt.Meta.Name]; e > latest {
			latest = e
		}
	}
	return latest
}

// Lookup implements plan.Catalog.
func (j *JobManager) Lookup(name string) (*plan.TableMeta, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if t, ok := j.catalog[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("cluster: unknown table %q", name)
}

// Tables lists catalog entries.
func (j *JobManager) Tables() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.catalog.Tables()
}

// join returns the flight executing the plan's statement — same shape, same
// literals, same epoch of every table it reads — registering the caller
// (query ID qid) as its leader when there is none. The leader executes and
// must land the flight; everyone else waits on done. A plan whose tables
// moved after boundAt may be stale already and gets no flight (nil).
func (j *JobManager) join(p *plan.PhysicalPlan, boundAt uint64, qid string) (f *flight, leader bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	epoch := j.tablesEpochLocked(p)
	if epoch > boundAt {
		return nil, false
	}
	key := p.Fingerprint + "\x00" + p.LiteralKey + "\x00" + strconv.FormatUint(epoch, 10)
	if f, ok := j.flights[key]; ok {
		f.followers++
		return f, false
	}
	f = &flight{key: key, leader: qid, done: make(chan struct{})}
	j.flights[key] = f
	return f, true
}

// land retires the leader's flight and releases its followers. res is the
// leader's result if it may be shared, nil if the followers must execute
// the statement themselves; the leader's caller owns res, so the followers
// get a copy — made only when someone is still waiting.
func (j *JobManager) land(f *flight, res *exec.Result, tasks int) {
	j.mu.Lock()
	delete(j.flights, f.key)
	waiting := f.followers > 0
	j.mu.Unlock()
	if waiting && res != nil {
		f.res, f.tasks = res.Clone(), tasks
	}
	close(f.done)
}

// collect takes a follower off the flight and returns its own copy of the
// leader's result: nil when the leader shared none, or when the follower
// gave up before the flight landed. The last one off takes the flight's copy
// itself, so n followers cost n copies; the others clone under the lock,
// which is what keeps that copy unshared until then.
func (j *JobManager) collect(f *flight, landed bool) *exec.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	f.followers--
	if !landed || f.res == nil { // f.res is the leader's to write until it lands
		return nil
	}
	if f.followers == 0 {
		return f.res
	}
	return f.res.Clone()
}

// catalogOp is the replicated operation-log entry for master HA.
type catalogOp struct {
	Table *plan.TableMeta
}

// catalogSnapshot is the checkpoint shipped to a fresh backup.
type catalogSnapshot struct {
	Tables []*plan.TableMeta
}

// Snapshot captures the catalog for checkpoint shipping.
func (j *JobManager) Snapshot() catalogSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	snap := catalogSnapshot{}
	for _, name := range j.catalog.Tables() {
		snap.Tables = append(snap.Tables, j.catalog[name])
	}
	return snap
}

// Restore applies a checkpoint.
func (j *JobManager) Restore(snap catalogSnapshot) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.catalog = plan.MapCatalog{}
	for _, t := range snap.Tables {
		j.catalog[t.Name] = t
	}
}
