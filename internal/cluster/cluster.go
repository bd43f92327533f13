// Package cluster implements Feisu's tree-structured server organization
// (paper §III-B, Fig. 3): a master that plans, schedules and finalizes
// queries; stem servers that dispatch sub-plans and aggregate partial
// results; and leaf servers co-located with storage that execute sub-plans
// with SmartIndex assistance. The master is composed of the paper's four
// separable services — job manager, cluster manager, job scheduler and
// entry guard — plus primary/backup failover via checkpoint and op log
// (§III-C), backup tasks for stragglers, and the processed-ratio /
// time-limit early return.
package cluster

import (
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/trace"
)

// WorkerKind distinguishes stem and leaf servers.
type WorkerKind int

// Worker kinds.
const (
	KindLeaf WorkerKind = iota
	KindStem
)

// String names the kind.
func (k WorkerKind) String() string {
	if k == KindStem {
		return "stem"
	}
	return "leaf"
}

// QueryOptions tune one query submission.
type QueryOptions struct {
	// Token authenticates the caller with the entry guard.
	Token string
	// Priority is the query's admission class (interactive by default).
	// Batch queries get a smaller weighted-fair share of execution slots
	// under load.
	Priority Priority
	// QueueDeadline bounds how long this query may wait in the admission
	// queue before being shed with *OverloadedError; 0 uses the cluster
	// default (MasterConfig.QueueWaitDeadline).
	QueueDeadline time.Duration
	// TimeLimit bounds wall-clock execution; expired queries return the
	// partial result accumulated so far when MinProcessedRatio is met
	// (paper §III-B: "directly limit the total elapse time").
	TimeLimit time.Duration
	// MinProcessedRatio (0..1] accepts a result once this fraction of
	// tasks has completed; 0 means all tasks are required.
	MinProcessedRatio float64
	// TaskTimeout is the per-task straggler threshold that triggers a
	// backup task; 0 uses the cluster default.
	TaskTimeout time.Duration
	// DisableResultCache bypasses the master's semantic result cache for
	// this query (no lookup, no store) — for ablations and freshness-
	// sensitive reads.
	DisableResultCache bool
	// Trace records a span tree for the query (master → stem → leaf →
	// scan with index/cache counters) into QueryStats.Trace. EXPLAIN
	// ANALYZE forces it on.
	Trace bool
	// PartialResults degrades instead of failing: tasks that exhaust their
	// retries are dropped from the result and reported per-leaf in
	// QueryStats.TaskErrors. At least one task must succeed.
	PartialResults bool
}

// TaskError reports one task dropped from a partial result.
type TaskError struct {
	// Ordinal is the task's position in the physical plan.
	Ordinal int
	// Leaf is the last leaf the task failed on.
	Leaf string
	// Err is the final error message.
	Err string
}

// QueryStats reports how a query executed.
type QueryStats struct {
	// QueryID is the master-assigned causal ID ("q000012") that keys the
	// query's flight-recorder events, live progress entry and stored trace.
	QueryID string
	// Fingerprint identifies the logical query (normalized plan
	// fingerprint, literals lifted to placeholders); the slow-query log
	// groups entries by it.
	Fingerprint string
	// ResultCache reports the semantic result cache outcome: "hit",
	// "subsumed" or "miss"; empty when the cache is disabled or bypassed.
	// Hit queries execute no tasks at all.
	ResultCache string
	Tasks       int
	TasksFailed int
	BackupTasks int
	ReusedTasks int
	// HedgedTasks is always 0: the cluster launches no speculative
	// duplicates (a straggler is backed up after TaskTimeout). It stays
	// because the benchmark module still reports it.
	HedgedTasks int
	// TaskErrors lists every task that ran out of retries, on any result
	// the query returned: a partial result under PartialResults, or an
	// early return once MinProcessedRatio was met.
	TaskErrors []TaskError
	Scan       exec.ScanStats
	// QueueWait is the time spent in the master's admission queue before an
	// execution slot was granted (0 when admission control is off or the
	// query was admitted immediately).
	QueueWait time.Duration
	// Priority is the admission class the query ran under.
	Priority Priority
	// SimTime is the cost-model response time: the critical path through
	// leaves and stems plus result transfers (DESIGN.md §2).
	SimTime time.Duration
	// ScanSimTime is the busiest leaf's execution-only simulated time
	// (storage reads + predicate CPU), excluding RPC and result-transfer
	// latency. It isolates the component that intra-task scan parallelism
	// (TaskSpec.Workers) divides; the fixed transport costs in SimTime do
	// not shrink with worker count.
	ScanSimTime time.Duration
	// WallTime is the real in-process execution time.
	WallTime time.Duration
	// BytesByDevice reports simulated bytes read per device class.
	BytesByDevice map[string]int64
	// ShuffleSpillBytes counts bytes the reducers spilled to global storage
	// during a repartitioned join or group-by (grace-hash overflow past the
	// memory grant); 0 for non-shuffle queries.
	ShuffleSpillBytes int64
	// Trace is the query's span tree when QueryOptions.Trace was set
	// (nil otherwise). Render it with Trace.Render().
	Trace *trace.Span
}

// lifecycle guards a server's heartbeat loop: Start/Stop may race from
// different goroutines, and Stop must be idempotent (a double Stop used to
// close a closed channel).
type lifecycle struct {
	mu   sync.Mutex
	stop chan struct{}
}

// start launches loop(stop) unless already running.
func (lc *lifecycle) start(loop func(stop <-chan struct{})) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.stop != nil {
		return
	}
	lc.stop = make(chan struct{})
	go loop(lc.stop)
}

// halt ends the loop; extra calls are no-ops.
func (lc *lifecycle) halt() {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.stop != nil {
		close(lc.stop)
		lc.stop = nil
	}
}

// taskMsg dispatches one sub-plan to a leaf.
type taskMsg struct {
	Task plan.TaskSpec
	// QueryID is the owning query's causal ID, carried so the leaf's
	// flight-recorder events join the query's task event chain.
	QueryID string
	// The shuffle route. Set (Exchange != ""), it makes this a shuffle's map
	// task: the leaf ships the scan's output to the reducers, staged there
	// under (Side, ordinal, Attempt), and replies with the transfer accounting.
	Exchange   string // exchange ID, unique per query
	Side       string // shuffleSideProbe | shuffleSideBuild | shuffleSideGroup
	Attempt    int
	Partitions int
	Keys       int // leading key columns in each map-output row (join sides)
	Reducers   []string
}

// taskReply is a leaf's answer.
type taskReply struct {
	Result *exec.TaskResult
	// SpillPath is set instead of Result when the payload exceeded the
	// spill threshold and was written to global storage (paper §V-C's
	// write flow: "it will be dumped to global storage and only the
	// location information is passed").
	SpillPath string
	Size      int64
	// SimTime is the leaf-side simulated execution time for the task.
	SimTime time.Duration
	// DevBytes reports simulated bytes read per device class on the leaf.
	DevBytes map[string]int64
	// TransferSim and PartBytes are a map task's simulated ship time and
	// bytes shipped, by partition; its reply carries no Result.
	TransferSim []time.Duration
	PartBytes   []int64
}

// stemJobMsg asks a stem to run and merge a set of tasks.
type stemJobMsg struct {
	Plan   *plan.PhysicalPlan
	Tasks  []plan.TaskSpec
	Assign map[int]string // task ordinal -> leaf node
	// QueryID tags the job's flight-recorder events with the owning query.
	QueryID string
	// TaskTimeout bounds each leaf call.
	TaskTimeout time.Duration
	// LeafSlots bounds the stem's concurrent calls per leaf — the stem-side
	// half of the scheduler's per-leaf slot accounting. <=0 means unbounded.
	LeafSlots int
	// Route, when set, makes every task a map task: the message each is sent
	// as, but for its Task, its Side (Sides, by ordinal) and its Attempt — 0
	// for the job's own dispatch, n for the master's n-th backup task.
	Route   *taskMsg
	Sides   []string
	Attempt int
}

// taskStatus reports one task's outcome inside a stem reply.
type taskStatus struct {
	OK      bool
	Err     string
	Leaf    string
	SimTime time.Duration
	// ScanSim is the leaf-execution component of SimTime: storage reads
	// plus predicate CPU, before spill-fetch and reply-transfer costs are
	// folded in. This is the part intra-task scan parallelism divides.
	ScanSim  time.Duration
	DevBytes map[string]int64
	// Rows is the task's result row count (0 for partial aggregates): the
	// master reports it per task but only ever sees the rows folded.
	Rows int
	// Unreachable marks a failure caused by the leaf being unknown/down on
	// the fabric — the master turns this into an immediate suspicion
	// instead of waiting out the liveness window.
	Unreachable bool
	// TransferSim and PartBytes relay a map task's taskReply to the master.
	TransferSim []time.Duration
	PartBytes   []int64
}

// stemReply is a stem's answer. Merged is the left fold, in ascending
// ordinal, of the job's tasks up to its first failure — all of them when
// nothing failed. Tail holds the successful tasks after that failure,
// unmerged, so the master's retry folds in at its own ordinal. Status has
// one entry per task, in job order.
type stemReply struct {
	Merged *exec.TaskResult
	Tail   map[int]*exec.TaskResult
	Status []taskStatus
}

// pingMsg checks liveness and reports load.
type pingMsg struct{}

// pingReply carries a worker's heartbeat payload.
type pingReply struct {
	Kind        WorkerKind
	ActiveTasks int
}

// deviceBytes extracts per-device byte counters from a bill.
func deviceBytes(b *sim.Bill) map[string]int64 {
	out := make(map[string]int64)
	for _, d := range []sim.DeviceClass{sim.DeviceHDD, sim.DeviceSSD, sim.DeviceMemory, sim.DeviceNetwork, sim.DeviceCold} {
		if n := b.Bytes(d); n != 0 {
			out[d.String()] = n
		}
	}
	return out
}
