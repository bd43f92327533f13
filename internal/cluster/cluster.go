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
	// latency: the part of SimTime that the data and the caches decide.
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

// taskBatch sends a leaf all of its tasks of one job, in ascending ordinal:
// one message per leaf per job. A backup task is a batch of one. Each task
// carries its plan; on the wire a plan the tasks share travels once.
type taskBatch struct {
	Tasks       []plan.TaskSpec
	QueryID     string        // the owning query's, for the leaf's journal
	TaskTimeout time.Duration // bounds each task, from that task's start
	Attempt     int           // 0 for the job's dispatch, n for the n-th backup
	Traced      bool          // the statement is traced: each task's reply carries its spans
	// The shuffle route. Set (Exchange != ""), it makes every task a map
	// task: the leaf sends the scan's output to the reducers, one message
	// each, committed there once per (Sides[ordinal], ordinal), and replies
	// with the transfer accounting.
	Exchange   string   // exchange ID, unique per query
	Sides      []string // by ordinal: shuffleSideProbe | shuffleSideBuild | shuffleSideGroup
	Partitions int
	Keys       int // leading key columns in each map-output row (join sides)
	Reducers   []string
}

// batchReply is a leaf's answer to a taskBatch, one taskReply per task.
type batchReply struct {
	Tasks []taskReply
}

// taskReply is one task's status on its leaf (SimTime is the leaf's bill
// alone), its result and the result's estimated size. Span, traced, holds the
// task's counters and its leaf/<name> subtree for the stem's attempt span.
type taskReply struct {
	Status taskStatus
	Result *exec.TaskResult
	Size   int64
	Span   *trace.Span
}

// stemJobMsg asks a stem to run and merge a set of tasks.
type stemJobMsg struct {
	Plan   *plan.PhysicalPlan
	Tasks  []plan.TaskSpec
	Assign map[int]string // task ordinal -> leaf node
	// Batch is what each leaf is sent, but for its Tasks: the query ID, the
	// per-task timeout, the attempt and, for map tasks, the route.
	Batch taskBatch
}

// taskStatus reports one task's outcome inside a leaf or stem reply.
type taskStatus struct {
	OK      bool
	Err     string
	Leaf    string
	SimTime time.Duration
	// ScanSim is the leaf-execution component of SimTime: storage reads
	// plus predicate CPU, before the batch reply's transfer is folded in.
	ScanSim  time.Duration
	DevBytes sim.DeviceBytes
	// Rows is the task's result row count (0 for partial aggregates): the
	// master reports it per task but only ever sees the rows folded.
	Rows int
	// Unreachable marks a failure caused by the leaf being unknown/down on
	// the fabric — the master turns this into an immediate suspicion
	// instead of waiting out the liveness window.
	Unreachable bool
	// TransferSim and TransferBytes are a map task's simulated ship time
	// and bytes shipped, by reducer: one shuffleMsg each.
	TransferSim   []time.Duration
	TransferBytes []int64
}

// stemReply is a stem's answer. Merged is the left fold, in ascending
// ordinal, of the job's tasks up to its first failure — all of them when
// nothing failed. Tail holds the successful tasks after that failure,
// unmerged, so the master's retry folds in at its own ordinal. Status has
// one entry per task, in job order. Span, traced, holds stem/<name> — for
// map tasks, their attempt spans — for the master's span.
type stemReply struct {
	Merged *exec.TaskResult
	Tail   map[int]*exec.TaskResult
	Status []taskStatus
	Span   *trace.Span
}

// pingMsg checks liveness and reports load.
type pingMsg struct{}

// pingReply carries a worker's heartbeat payload.
type pingReply struct {
	Kind        WorkerKind
	ActiveTasks int
}
