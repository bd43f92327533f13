package cluster

import (
	"fmt"
	"slices"
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
	// epoch is the last stamp issued, and at least every Version and Gen the
	// catalog holds: a registration stamps its table's Version, and the Gen
	// of each partition registered with Gen 0, with the next value.
	epoch uint64
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
		flights: make(map[string]*flight),
	}
}

// RegisterTable installs or replaces a catalog entry: its own copy of meta,
// stamped with a fresh Version, which is also the Gen of every partition
// registered with Gen 0 (new bytes); a partition that carries a Gen keeps it.
// It returns the op for replication to backup masters and the partitions of
// the previous entry that the new one supersedes (plan.TableMeta.Superseded).
func (j *JobManager) RegisterTable(meta *plan.TableMeta) (catalogOp, []plan.PartitionMeta) {
	t := *meta
	t.Partitions = slices.Clone(meta.Partitions)
	j.mu.Lock()
	defer j.mu.Unlock()
	// A backup replaying the primary's ops is handed stamps it never issued.
	j.coverLocked(&t)
	j.epoch++
	t.Version = j.epoch
	for i := range t.Partitions {
		if t.Partitions[i].Gen == 0 {
			t.Partitions[i].Gen = j.epoch
		}
	}
	prev := j.catalog[t.Name]
	j.catalog[t.Name] = &t
	return catalogOp{Table: &t}, prev.Superseded(&t)
}

// coverLocked raises the counter to every stamp t carries, so that none is
// issued twice.
func (j *JobManager) coverLocked(t *plan.TableMeta) {
	j.epoch = max(j.epoch, t.Version)
	for _, p := range t.Partitions {
		j.epoch = max(j.epoch, p.Gen)
	}
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
// literals, same version of every table it reads — registering the caller
// (query ID qid) as its leader when there is none. The leader executes and
// must land the flight; everyone else waits on done. A plan bound to a
// version the catalog has since replaced may be stale already and gets no
// flight (nil).
func (j *JobManager) join(p *plan.PhysicalPlan, qid string) (f *flight, leader bool) {
	var buf [128]byte
	b := append(append(append(buf[:0], p.Fingerprint...), 0), p.LiteralKey...)
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, bt := range p.A.Tables {
		if cur := j.catalog[bt.Meta.Name]; cur == nil || cur.Version != bt.Meta.Version {
			return nil, false
		}
		b = strconv.AppendUint(append(b, 0), bt.Meta.Version, 10)
	}
	key := string(b)
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
		j.coverLocked(t)
	}
}
