package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/resultcache"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/types"
)

// ErrStandby is returned when a query is submitted to a backup master.
var ErrStandby = errors.New("cluster: master is in standby (backup) mode")

// ErrDeadline is returned when the time limit expires before the minimum
// processed ratio is reached.
var ErrDeadline = errors.New("cluster: time limit expired before enough tasks completed")

// MasterConfig wires a master.
type MasterConfig struct {
	Name   string
	Fabric transport.Network
	Router *storage.Router
	Model  *sim.CostModel
	// Authority enables the entry guard; nil runs the cluster open.
	Authority *auth.Authority
	Quotas    *auth.Quotas
	// MaxQueryBytes caps query text size at the entry guard.
	MaxQueryBytes int
	// DefaultTaskTimeout triggers backup tasks; 0 disables.
	DefaultTaskTimeout time.Duration
	// MaxTaskRetries bounds backup attempts per task.
	MaxTaskRetries int
	// RetryBackoff is the base of the exponential backoff between backup
	// attempts (base<<attempt plus deterministic jitter); 0 retries
	// immediately.
	RetryBackoff time.Duration
	// HedgeDelay is how long a stem waits on a straggler-flagged leaf
	// before firing a speculative duplicate task; 0 uses a default,
	// negative disables hedging.
	HedgeDelay time.Duration
	// StragglerFactor flags a leaf as a straggler when its smoothed task
	// wall time exceeds this multiple of the fleet median; 0 uses 3.
	StragglerFactor float64
	// ScanWorkers sets the intra-task scan parallelism stamped on every
	// dispatched task (plan.TaskSpec.Workers); 0 lets leaves default to
	// GOMAXPROCS, negative forces serial scans.
	ScanWorkers int
	// MaxConcurrentQueries caps queries executing at once; excess submissions
	// wait in the admission queue. <=0 disables admission control.
	MaxConcurrentQueries int
	// MaxQueueDepth bounds each priority class's admission queue; arrivals
	// beyond it are shed with *OverloadedError. 0 defaults to
	// 2×MaxConcurrentQueries.
	MaxQueueDepth int
	// QueueWaitDeadline sheds queries still queued after this wait; 0 lets
	// them wait as long as their context allows. QueryOptions.QueueDeadline
	// overrides per query.
	QueueWaitDeadline time.Duration
	// InteractiveWeight / BatchWeight set the weighted-fair dequeue shares;
	// 0 defaults to 4:1.
	InteractiveWeight int
	BatchWeight       int
	// LeafSlots caps concurrent task placements per leaf (scheduler side)
	// and concurrent in-flight leaf calls per stem job (stem side); <=0
	// means unbounded.
	LeafSlots int
	// LivenessWindow configures the cluster manager.
	LivenessWindow time.Duration
	// LocalityOff disables locality-aware placement (ablation).
	LocalityOff bool
	// Standby starts the master as a backup.
	Standby bool
	// ResultCache, when set, serves repeated (or subsumed) queries from
	// the master without executing tasks, and is invalidated on catalog
	// changes. Nil disables semantic result caching.
	ResultCache *resultcache.Cache
	// CacheAffinity routes tasks for the same partition to the same leaf
	// (rendezvous hashing) while slot caps allow, so leaf-local caches keep
	// hitting; the scheduler falls back to load-aware placement when the
	// fleet saturates.
	CacheAffinity bool
	// Observer, when set, receives every query's predicate atoms per
	// user — the client-side query-history collection that personalizes
	// SmartIndex (paper §III-C).
	Observer PredicateObserver
	// Metrics, when set, receives the master's query counters.
	Metrics *metrics.Registry
	// Events, when set, journals query/task lifecycle decisions into the
	// flight recorder; the master also hands it to its cluster manager and
	// local stem.
	Events *events.Recorder
	// Planner tunes the repartition-shuffle planner (broadcast threshold,
	// partition fan-out, group-by shuffle trigger, reducer memory grants).
	// The zero value behaves exactly like plan.DefaultOptions.
	Planner plan.Options
}

// PredicateObserver collects per-user predicate usage.
type PredicateObserver interface {
	ObserveQuery(user string, atomKeys []string)
}

// Master is the root of the execution tree.
type Master struct {
	cfg       MasterConfig
	Jobs      *JobManager
	Manager   *ClusterManager
	Scheduler *JobScheduler
	Guard     *EntryGuard
	// Admission is the bounded query queue; nil when admission control is
	// off (MaxConcurrentQueries <= 0).
	Admission *AdmissionController
	// queueWait records admitted queries' queue time in seconds.
	queueWait *metrics.Histogram
	reader    *exec.StoreReader
	localStem *StemServer
	// progress tracks in-flight queries for ActiveQueries / \watch /
	// /debug/queries; qidSeq assigns causal query IDs.
	progress *ProgressRegistry
	qidSeq   atomic.Uint64

	mu      sync.Mutex
	standby bool
	backups []string

	// Queries counts submissions; QueryErrs counts the ones that failed.
	Queries   metrics.Counter
	QueryErrs metrics.Counter
	// Recovery counters: backup (retry) attempts, hedges fired and won,
	// and queries that degraded to a partial result.
	Retries     metrics.Counter
	HedgesFired metrics.Counter
	HedgesWon   metrics.Counter
	Partials    metrics.Counter
}

// defaultHedgeDelay is how long a stem waits before firing a speculative
// duplicate when the master's config leaves HedgeDelay zero.
const defaultHedgeDelay = 30 * time.Millisecond

// NewMaster builds and registers a master on the fabric.
func NewMaster(cfg MasterConfig) *Master {
	if cfg.MaxTaskRetries <= 0 {
		cfg.MaxTaskRetries = 2
	}
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = defaultHedgeDelay
	}
	if cfg.StragglerFactor <= 0 {
		cfg.StragglerFactor = 3
	}
	m := &Master{
		cfg:      cfg,
		Jobs:     NewJobManager(),
		Manager:  NewClusterManager(cfg.LivenessWindow),
		standby:  cfg.Standby,
		reader:   exec.NewStoreReader(cfg.Router),
		progress: NewProgressRegistry(),
	}
	m.Manager.Events = cfg.Events
	m.Scheduler = &JobScheduler{
		Manager:      m.Manager,
		Locator:      cfg.Router,
		Topo:         cfg.Fabric.Topology(),
		SlotsPerLeaf: cfg.LeafSlots,
		LocalityOff:  cfg.LocalityOff,
		Affinity:     cfg.CacheAffinity,
	}
	m.Admission = NewAdmissionController(AdmissionConfig{
		MaxConcurrent: cfg.MaxConcurrentQueries,
		MaxQueueDepth: cfg.MaxQueueDepth,
		QueueDeadline: cfg.QueueWaitDeadline,
		Weights: [numPriorities]int{
			PriorityInteractive: cfg.InteractiveWeight,
			PriorityBatch:       cfg.BatchWeight,
		},
	})
	if cfg.Authority != nil {
		m.Guard = &EntryGuard{Authority: cfg.Authority, Quotas: cfg.Quotas, MaxQueryBytes: cfg.MaxQueryBytes}
	}
	// The local stem lets a master without registered stem servers drive
	// leaves directly, and serves single-task backup dispatches.
	m.localStem = &StemServer{Name: cfg.Name, Fabric: cfg.Fabric, Router: cfg.Router, Model: cfg.Model, Events: cfg.Events}
	cfg.Fabric.Register(cfg.Name, m.handle)
	cfg.Metrics.Register("master.queries", &m.Queries)
	cfg.Metrics.Register("master.query_errors", &m.QueryErrs)
	cfg.Metrics.Register("master.task_retries", &m.Retries)
	cfg.Metrics.Register("master.hedges_fired", &m.HedgesFired)
	cfg.Metrics.Register("master.hedges_won", &m.HedgesWon)
	cfg.Metrics.Register("master.partial_results", &m.Partials)
	if m.Admission != nil && cfg.Metrics != nil {
		m.queueWait = cfg.Metrics.HistogramWith("feisu_admission_wait_seconds")
		for c := Priority(0); c < numPriorities; c++ {
			label := metrics.Label{Key: "class", Value: c.String()}
			cfg.Metrics.RegisterCounterWith("feisu_admission_admitted_total", &m.Admission.Admitted[c], label)
			cfg.Metrics.RegisterCounterWith("feisu_admission_shed_total", &m.Admission.Shed[c], label)
			cfg.Metrics.RegisterGaugeFunc("feisu_admission_queue_depth", func() float64 {
				return float64(m.Admission.QueueDepth(c))
			}, label)
		}
		cfg.Metrics.RegisterGaugeFunc("feisu_admission_running", func() float64 {
			return float64(m.Admission.Running())
		})
	}
	return m
}

// handle processes fabric messages addressed to the master.
func (m *Master) handle(ctx context.Context, from string, payload any) (any, error) {
	switch msg := payload.(type) {
	case heartbeatMsg:
		load := msg.Load
		load.ActiveTasks = msg.Active
		m.Manager.HeartbeatLoad(msg.Name, msg.Kind, load)
		return nil, nil
	case catalogOp:
		m.Jobs.RegisterTable(msg.Table)
		if msg.Table != nil {
			m.cfg.ResultCache.InvalidateTable(msg.Table.Name)
		}
		return nil, nil
	case catalogSnapshot:
		m.Jobs.Restore(msg)
		return nil, nil
	case pingMsg:
		return pingReply{}, nil
	case shuffleFrameMsg, shuffleEndMsg, shuffleReduceMsg, shuffleCleanupMsg:
		// Standby clusters run without dedicated stems; the master then
		// doubles as the sole reducer via its local stem.
		return m.localStem.handle(ctx, from, payload)
	default:
		return nil, fmt.Errorf("cluster: master %s: unknown message %T", m.cfg.Name, payload)
	}
}

// InvalidatePartition drops the master's cached footer for a rewritten
// partition file and evicts result-cache entries over its table — the
// master half of the ingest invalidation protocol (leaf readers and SSD
// caches are invalidated by the system wiring).
func (m *Master) InvalidatePartition(table, path string) {
	m.cfg.Events.Emit("ingest", events.IngestInvalidate, "", -1, table+" "+path)
	// The epoch moves before the cache is invalidated (see StoreIf).
	m.Jobs.invalidate(table)
	m.reader.InvalidateMeta(path)
	m.cfg.ResultCache.InvalidateTable(table)
}

// ActiveQueries snapshots the in-flight queries (oldest first): the live
// progress view behind System.ActiveQueries, `\watch` and /debug/queries.
func (m *Master) ActiveQueries() []QueryProgress {
	return m.progress.Active()
}

// ResultCache exposes the configured cache (nil when disabled).
func (m *Master) ResultCache() *resultcache.Cache { return m.cfg.ResultCache }

// Health returns the fleet view with this master's admission state folded
// in (the ClusterManager alone cannot see the admission queue).
func (m *Master) Health() ClusterHealth {
	h := m.Manager.Health()
	h.Admission = m.Admission.Snapshot()
	return h
}

// Standby reports whether the master is a backup.
func (m *Master) Standby() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.standby
}

// Promote turns a backup master into the primary (failover).
func (m *Master) Promote() {
	m.mu.Lock()
	m.standby = false
	m.mu.Unlock()
}

// AddBackup ships a checkpoint to a backup master and starts replicating
// the op log to it (paper §III-C: "the backup components get checkpoint
// and operations log from the primary in realtime").
func (m *Master) AddBackup(ctx context.Context, name string) error {
	snap := m.Jobs.Snapshot()
	if _, err := m.cfg.Fabric.Call(ctx, m.cfg.Name, name, transport.Control, snap, 1024); err != nil {
		return fmt.Errorf("cluster: checkpoint to backup %s: %w", name, err)
	}
	m.mu.Lock()
	m.backups = append(m.backups, name)
	m.mu.Unlock()
	return nil
}

// RegisterTable installs a table and replicates the op to backups.
func (m *Master) RegisterTable(ctx context.Context, meta *plan.TableMeta) error {
	if m.Standby() {
		return ErrStandby
	}
	op := m.Jobs.RegisterTable(meta)
	// Catalog changes (new or grown partition sets) make cached results
	// over the table stale. Jobs.RegisterTable has already moved the
	// table's epoch (see StoreIf).
	m.cfg.ResultCache.InvalidateTable(meta.Name)
	m.mu.Lock()
	backups := append([]string(nil), m.backups...)
	m.mu.Unlock()
	for _, b := range backups {
		if _, err := m.cfg.Fabric.Call(ctx, m.cfg.Name, b, transport.Control, op, 256); err != nil {
			return fmt.Errorf("cluster: replicate catalog op to %s: %w", b, err)
		}
	}
	return nil
}

// servedTrace is the span tree of a statement answered without executing:
// the root and one child that says where the rows came from.
func servedTrace(name, attr, value string, rows int) *trace.Span {
	root := trace.New("master/query")
	span := root.Child(name)
	span.SetAttr(attr, value)
	span.Count("rows", int64(rows))
	span.Finish()
	root.Finish()
	return root
}

// trimSQL collapses query text onto one line and truncates it for event
// details (the full SQL lives in the progress registry and slowlog).
func trimSQL(sql string) string {
	sql = strings.Join(strings.Fields(sql), " ")
	if len(sql) > 80 {
		sql = sql[:77] + "..."
	}
	return sql
}

// textResult wraps multi-line text (a plan description, a rendered trace)
// as a one-column result set.
func textResult(col, text string) *exec.Result {
	res := &exec.Result{Columns: []string{col}, Types: []types.Type{types.String}, ProcessedRatio: 1}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		res.Rows = append(res.Rows, []types.Value{types.NewString(line)})
	}
	return res
}
