package cluster

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/colstore"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/resultcache"
	"repro/internal/sim"
	"repro/internal/sqlparser"
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
			c := c
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

// Submit plans, schedules, executes and finalizes one query.
func (m *Master) Submit(ctx context.Context, sql string, opts QueryOptions) (*exec.Result, *QueryStats, error) {
	res, stats, err := m.submit(ctx, sql, opts)
	m.Queries.Inc()
	if err != nil {
		m.QueryErrs.Inc()
	}
	return res, stats, err
}

func (m *Master) submit(ctx context.Context, sql string, opts QueryOptions) (res *exec.Result, stats *QueryStats, err error) {
	if m.Standby() {
		return nil, nil, ErrStandby
	}
	start := time.Now()
	qid := fmt.Sprintf("q%06d", m.qidSeq.Add(1))
	qsite := "query/" + qid
	stats = &QueryStats{QueryID: qid}
	m.cfg.Events.Emit(qsite, events.QuerySubmit, qid, -1, trimSQL(sql))
	defer func() {
		var over *OverloadedError
		switch {
		case err == nil:
			rows := 0
			if res != nil {
				rows = len(res.Rows)
			}
			m.cfg.Events.EmitSim(qsite, events.QueryDone, qid, -1, statsSim(stats), fmt.Sprintf("rows=%d", rows))
		case errors.As(err, &over):
			m.cfg.Events.Emit(qsite, events.QueryShed, qid, -1, opts.Priority.String())
		default:
			m.cfg.Events.Emit(qsite, events.QueryError, qid, -1, err.Error())
		}
	}()

	// Entry guard (§III-C).
	var cred auth.Credential
	if m.Guard != nil {
		var release func()
		var err error
		cred, release, err = m.Guard.Admit(opts.Token, sql)
		if err != nil {
			return nil, nil, err
		}
		defer release()
	}

	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	// The plan is current while no table it reads is invalidated past
	// boundAt; the read must precede the catalog lookups inside PlanWith.
	boundAt := m.Jobs.epochNow()
	p, err := plan.PlanWith(stmt, m.Jobs, m.cfg.Planner)
	if err != nil {
		return nil, nil, err
	}
	stats.Fingerprint = p.Fingerprint

	// Cross-domain authorization: the job credential must map into every
	// storage domain the query touches (§V-A).
	if m.Guard != nil {
		if err := m.authorize(cred, p); err != nil {
			return nil, nil, err
		}
	}

	// EXPLAIN without ANALYZE describes the plan and returns without
	// executing anything.
	if stmt.Explain && !stmt.Analyze {
		stats.WallTime = time.Since(start)
		return textResult("plan", p.Describe()), stats, nil
	}
	if stmt.Analyze {
		opts.Trace = true
	}

	// Semantic result cache: a complete cached result for this plan — exact
	// literals, or a subsuming entry re-filtered with this query's own
	// predicate — answers the query here, without taking an execution slot
	// (cache hits do no execution, so they bypass admission entirely).
	if m.cfg.ResultCache != nil && !opts.DisableResultCache {
		if res, outcome := m.cfg.ResultCache.Lookup(p); outcome != resultcache.Miss {
			stats.ResultCache = outcome.String()
			kind := events.CacheHit
			if outcome == resultcache.SubsumedHit {
				kind = events.CacheSubsumed
			}
			m.cfg.Events.Emit(qsite, kind, qid, -1, p.Fingerprint)
			var root *trace.Span
			if opts.Trace {
				root = servedTrace("master/result-cache", "status", outcome.String(), len(res.Rows))
				stats.Trace = root
			}
			stats.WallTime = time.Since(start)
			if stmt.Analyze {
				return textResult("EXPLAIN ANALYZE", p.DescribeAnalyze(root)), stats, nil
			}
			return res, stats, nil
		}
		stats.ResultCache = resultcache.Miss.String()
	}

	// Statement flight: while an identical statement (same shape, same
	// literals, same version of every table) is executing, wait for its
	// result instead of executing — like a cache hit, a follower takes no
	// execution slot. A statement that must trace its own execution or
	// answer by a deadline executes itself, and so does one whose tables
	// moved while it was being planned.
	var shared *exec.Result // the leader's result, once it may be shared
	if !stmt.Analyze && opts.TimeLimit == 0 {
		if f, leader := m.Jobs.join(p, boundAt, qid); leader {
			st := stats // error returns nil out the named result
			defer func() { m.Jobs.land(f, shared, st.Tasks) }()
		} else if f != nil {
			res, err := m.follow(ctx, f, qsite, opts.Trace, stats)
			if err != nil {
				return nil, nil, err
			}
			if res != nil {
				stats.WallTime = time.Since(start)
				return res, stats, nil
			}
			// The leader failed, degraded or was cancelled: execute the
			// statement here after all.
		}
	}

	// Admission control: wait for an execution slot (weighted-fair between
	// classes) or shed with a typed retry-after error. Everything above is
	// cheap planning work; the slot bounds actual execution.
	stats.Priority = opts.Priority
	prog := m.progress.Begin(QueryProgress{
		ID: qid, SQL: sql, Fingerprint: p.Fingerprint,
		Priority: opts.Priority.String(), State: "queued",
	})
	defer m.progress.End(qid)
	release, queueWait, err := m.Admission.Admit(ctx, opts.Priority, opts.QueueDeadline)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	stats.QueueWait = queueWait
	if queueWait > 0 {
		m.cfg.Events.Emit(qsite, events.QueryQueued, qid, -1, opts.Priority.String())
	}
	m.cfg.Events.Emit(qsite, events.QueryAdmitted, qid, -1, opts.Priority.String())
	prog.update(func(p *QueryProgress) {
		p.State = "running"
		p.QueueWait = queueWait
	})
	if m.queueWait != nil {
		m.queueWait.Observe(queueWait.Seconds())
	}

	var root *trace.Span
	if opts.Trace {
		root = trace.New("master/query")
		stats.Trace = root
		ctx = trace.NewContext(ctx, root)
		if m.Admission != nil {
			aspan := root.Child("master/admission")
			aspan.SetAttr("class", opts.Priority.String())
			aspan.SetAttr("wait", queueWait.String())
			aspan.SetWall(queueWait)
			aspan.Finish()
		}
		if stats.ResultCache != "" {
			cspan := root.Child("master/result-cache")
			cspan.SetAttr("status", stats.ResultCache)
			cspan.Finish()
		}
	}

	if m.cfg.Observer != nil {
		var keys []string
		for _, cl := range p.Filter.Clauses {
			for _, a := range cl.Atoms {
				keys = append(keys, a.Key())
			}
		}
		m.cfg.Observer.ObserveQuery(cred.User, keys)
	}

	if opts.TimeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.TimeLimit)
		defer cancel()
	}

	masterBill := sim.NewBill()
	dctx, dspan := trace.StartSpan(ctx, "master/load-dims")
	if err := m.loadDims(storage.WithBill(dctx, masterBill), p); err != nil {
		return nil, nil, err
	}
	dspan.SetSim(masterBill.Time())
	dspan.Finish()

	var merged *exec.TaskResult
	if p.Shuffle != nil {
		// Repartitioned query: map tasks on the leaves, keyed frames to the
		// reducers, one reduce per reducer. runShuffle sets stats.Tasks and
		// the progress counters itself.
		ectx, espan := trace.StartSpan(ctx, "master/execute")
		merged, err = m.runShuffle(ectx, p, opts, stats, qid, prog)
		espan.SetSim(stats.SimTime)
		espan.Finish()
	} else {
		tasks := p.Tasks()
		if m.cfg.ScanWorkers != 0 {
			w := m.cfg.ScanWorkers
			if w < 0 {
				w = 1
			}
			for i := range tasks {
				tasks[i].Workers = w
			}
		}
		stats.Tasks = len(tasks)
		prog.update(func(p *QueryProgress) { p.TasksPlanned = len(tasks) })
		ectx, espan := trace.StartSpan(ctx, "master/execute")
		merged, err = m.runAll(ectx, p, tasks, opts, stats, qid, prog)
		espan.SetSim(stats.SimTime)
		espan.Finish()
	}
	if err != nil {
		return nil, nil, err
	}

	fspan := root.Child("master/finalize")
	res, err = exec.Finalize(p, merged)
	fspan.Finish()
	if err != nil {
		return nil, nil, err
	}
	if merged != nil {
		stats.Scan = merged.Stats
	}
	completed := stats.Tasks - stats.TasksFailed
	if stats.Tasks > 0 {
		res.ProcessedRatio = float64(completed) / float64(stats.Tasks)
	} else {
		res.ProcessedRatio = 1
	}
	res.Partial = stats.TasksFailed > 0
	stats.WallTime = time.Since(start)
	stats.SimTime += masterBill.Time() + 2*m.rpcLatency()
	if stats.BytesByDevice == nil {
		stats.BytesByDevice = make(map[string]int64)
	}
	for dev, n := range deviceBytes(masterBill) {
		stats.BytesByDevice[dev] += n
	}
	if root != nil {
		root.SetSim(stats.SimTime)
		root.Count("tasks", int64(stats.Tasks))
		if stats.BackupTasks > 0 {
			root.Count("tasks.backup", int64(stats.BackupTasks))
		}
		if stats.HedgedTasks > 0 {
			root.Count("tasks.hedged", int64(stats.HedgedTasks))
		}
		if stats.HedgesWon > 0 {
			root.Count("tasks.hedge_won", int64(stats.HedgesWon))
		}
		if len(stats.TaskErrors) > 0 {
			root.Count("tasks.dropped", int64(len(stats.TaskErrors)))
		}
		root.Finish()
	}
	// Share and store only complete results: no failed tasks, no
	// partial/ratio degradation — neither a follower nor the cache may
	// replay a truncated answer.
	if stats.TasksFailed == 0 && !res.Partial && res.ProcessedRatio >= 1 {
		shared = res
		if !opts.DisableResultCache {
			m.cfg.ResultCache.StoreIf(p, cred.User, res, func() bool { return m.Jobs.current(p, boundAt) })
		}
	}
	if stmt.Analyze {
		return textResult("EXPLAIN ANALYZE", p.DescribeAnalyze(root)), stats, nil
	}
	return res, stats, nil
}

// follow waits for the flight's leader and returns the caller's own copy
// of its result — nil when the leader had none to share. Every task is
// accounted as reused.
func (m *Master) follow(ctx context.Context, f *flight, qsite string, traced bool, stats *QueryStats) (*exec.Result, error) {
	select {
	case <-f.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if f.res == nil {
		return nil, nil
	}
	res := f.res.Clone()
	stats.Tasks, stats.ReusedTasks = f.tasks, f.tasks
	m.Jobs.Reused.Add(int64(f.tasks))
	m.cfg.Events.Emit(qsite, events.QueryFollowed, stats.QueryID, -1, f.leader)
	if traced {
		stats.Trace = servedTrace("master/flight", "leader", f.leader, len(res.Rows))
	}
	return res, nil
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

// statsSim reads SimTime nil-safely (error paths null out the stats return,
// and the deferred journal emission runs after that).
func statsSim(st *QueryStats) time.Duration {
	if st == nil {
		return 0
	}
	return st.SimTime
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

func (m *Master) rpcLatency() time.Duration {
	if m.cfg.Model == nil {
		return 0
	}
	return m.cfg.Model.RPCLatency
}

// authorize checks every storage domain the plan reads.
func (m *Master) authorize(cred auth.Credential, p *plan.PhysicalPlan) error {
	seen := make(map[string]bool)
	for _, bt := range p.A.Tables {
		for _, part := range bt.Meta.Partitions {
			store, _ := m.cfg.Router.Resolve(part.Path)
			scheme := store.Scheme()
			if seen[scheme] {
				continue
			}
			seen[scheme] = true
			if err := m.cfg.Authority.Authorize(cred, scheme); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadDims materializes the broadcast dimension tables at the master.
func (m *Master) loadDims(ctx context.Context, p *plan.PhysicalPlan) error {
	for _, d := range p.Dims {
		cols := d.Needed
		if len(cols) == 0 {
			d.Data = nil
			continue
		}
		var rows [][]types.Value
		for _, part := range d.Table.Meta.Partitions {
			meta, err := m.reader.Meta(ctx, part.Path)
			if err != nil {
				return fmt.Errorf("cluster: dimension %s: %w", d.Table.Meta.Name, err)
			}
			ords := make([]int, len(cols))
			for i, c := range cols {
				ord := meta.Schema.Index(c)
				if ord < 0 {
					return fmt.Errorf("cluster: dimension %s lacks column %q", d.Table.Meta.Name, c)
				}
				ords[i] = ord
			}
			for bi := range meta.Blocks {
				colData := make([]*colColumn, len(cols))
				for i, ord := range ords {
					c, err := m.reader.Column(ctx, part.Path, meta, bi, ord)
					if err != nil {
						return err
					}
					colData[i] = &colColumn{c: c}
				}
				n := meta.Blocks[bi].Stats.NumRows
				for r := 0; r < n; r++ {
					row := make([]types.Value, len(cols))
					for i := range cols {
						row[i] = colData[i].value(r)
					}
					rows = append(rows, row)
				}
			}
		}
		d.Data = rows
	}
	return nil
}

// taskDone is one task's terminal outcome inside runAll: the status of its
// last attempt (of the winning one when it succeeded), the error that ended
// it otherwise, and the backup tasks it took.
type taskDone struct {
	ordinal int
	taskStatus
	err     error
	backups int
}

// groupDone is one stem group's outcome: its tasks in ascending ordinal and
// the left fold of their results in that order.
type groupDone struct {
	tasks  []taskDone
	merged *exec.TaskResult
}

// runAll executes the task set — one job per stem group, backup tasks for
// what fails there, the early-return policy — and folds the results. The
// fold is by ordinal, never by arrival: within a group ascending, the
// groups in ascending first ordinal. Float aggregates are not associative,
// so any other rule makes the same statement return different last digits
// run to run; with one group the fold is exactly a single node's.
func (m *Master) runAll(ctx context.Context, p *plan.PhysicalPlan, tasks []plan.TaskSpec, opts QueryOptions, stats *QueryStats, qid string, prog *progressHandle) (*exec.TaskResult, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	timeout := opts.TaskTimeout
	if timeout == 0 {
		timeout = m.cfg.DefaultTaskTimeout
	}

	assign, err := m.Scheduler.PlanAll(tasks)
	if err != nil {
		return nil, err
	}
	// heldSlots tracks the tasks' placement slots (charged by PlanAll); each
	// is released when the task's terminal outcome is collected, so
	// concurrent queries' placements see each other's live claims. Only the
	// collection loop below touches it.
	heldSlots := make(map[int]string, len(assign))
	for ord, leaf := range assign {
		heldSlots[ord] = leaf
	}
	defer func() {
		for _, leaf := range heldSlots {
			m.Scheduler.ReleaseTask(leaf)
		}
	}()
	if m.cfg.Events.Enabled() {
		for _, t := range tasks {
			m.cfg.Events.Emit(events.TaskSite(qid, t.Ordinal), events.TaskScheduled,
				qid, t.Ordinal, assign[t.Ordinal])
		}
	}

	// Dispatch grouped per stem; the master's local stem stands in when no
	// stem servers are alive. Each goroutine sends exactly one groupDone and
	// the channel holds them all, so a collector that gave up at the
	// deadline strands nobody.
	backup, hedgeDelay := m.planHedges(tasks, assign, opts)
	byStem := m.groupByStem(tasks, assign)
	results := make(chan groupDone, len(byStem))
	for stemName, group := range byStem {
		go func(stemName string, group []plan.TaskSpec) {
			prog.update(func(p *QueryProgress) { p.TasksDispatched += len(group) })
			job := stemJobMsg{Plan: p, Tasks: group, Assign: assign, TaskTimeout: timeout,
				Backup: backup, HedgeDelay: hedgeDelay,
				LeafSlots: m.Scheduler.SlotsPerLeaf, QueryID: qid}
			reply, err := m.callStem(ctx, stemName, job)
			// reply.Merged already holds the tasks before the stem's first
			// failure; from there on each result — the backup task's, then
			// the tail the stem relayed — folds in here, in the same order.
			g := groupDone{tasks: make([]taskDone, len(group)), merged: reply.Merged}
			for i, t := range group {
				st, ok := reply.Status[t.Ordinal]
				d := taskDone{ordinal: t.Ordinal, taskStatus: st}
				res := reply.Tail[t.Ordinal]
				switch {
				case err != nil:
					d.err = err
				case !ok:
					d.err = fmt.Errorf("cluster: stem %s lost task %d", stemName, t.Ordinal)
				case st.OK:
					m.Manager.ReportTaskTime(st.Leaf, st.Wall)
				default:
					d.err = errors.New(st.Err)
					if st.Unreachable {
						// Dispatch hit an unknown/down node: suspect it now
						// rather than waiting out the liveness window.
						m.Manager.MarkSuspect(st.Leaf)
					}
				}
				// Backup tasks: reschedule failures on other leaves.
				if d.err != nil {
					d.Leaf = assign[t.Ordinal]
					d, res = m.retryTask(ctx, p, t, timeout, d, qid)
				}
				g.merged = exec.MergeResults(p, g.merged, res)
				g.tasks[i] = d
			}
			results <- g
		}(stemName, group)
	}

	// Collect.
	groups := make([]groupDone, 0, len(byStem))
	completed := 0
	leafBusy := make(map[string]time.Duration)
	leafScan := make(map[string]time.Duration)
	devBytes := make(map[string]int64)
	deadlineHit := false
	for len(groups) < len(byStem) && !deadlineHit {
		select {
		case g := <-results:
			groups = append(groups, g)
			for _, d := range g.tasks {
				if leaf, ok := heldSlots[d.ordinal]; ok {
					m.Scheduler.ReleaseTask(leaf)
					delete(heldSlots, d.ordinal)
				}
				if d.Hedged {
					stats.HedgedTasks++
					m.HedgesFired.Inc()
				}
				if d.HedgeWon {
					stats.HedgesWon++
					m.HedgesWon.Inc()
				}
				if d.err != nil {
					stats.TasksFailed++
					stats.TaskErrors = append(stats.TaskErrors, TaskError{Ordinal: d.ordinal, Leaf: d.Leaf, Err: d.err.Error()})
					m.cfg.Events.Emit(events.TaskSite(qid, d.ordinal), events.TaskPartial,
						qid, d.ordinal, d.err.Error())
				} else {
					completed++
					stats.BackupTasks += d.backups
					if d.Leaf != "" {
						leafBusy[d.Leaf] += d.SimTime
						leafScan[d.Leaf] += d.ScanSim
					}
					for dev, n := range d.DevBytes {
						devBytes[dev] += n
					}
					if m.cfg.Events.Enabled() {
						m.cfg.Events.EmitSim(events.TaskSite(qid, d.ordinal), events.TaskCollected,
							qid, d.ordinal, d.SimTime, d.Leaf+" rows="+strconv.FormatInt(int64(d.Rows), 10))
					}
				}
				prog.update(func(p *QueryProgress) {
					if d.err != nil {
						p.TasksFailed++
					} else {
						p.TasksDone++
						p.Rows += int64(d.Rows)
					}
					if d.Hedged {
						p.TasksHedged++
					}
					p.TasksRetried += d.backups
				})
			}
		case <-ctx.Done():
			deadlineHit = true
			stats.TasksFailed = len(tasks) - completed
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].tasks[0].ordinal < groups[j].tasks[0].ordinal })
	var merged *exec.TaskResult
	for _, g := range groups {
		merged = exec.MergeResults(p, merged, g.merged)
	}

	var busiest time.Duration
	for _, b := range leafBusy {
		if b > busiest {
			busiest = b
		}
	}
	stats.SimTime = busiest
	for _, b := range leafScan {
		if b > stats.ScanSimTime {
			stats.ScanSimTime = b
		}
	}
	stats.BytesByDevice = devBytes

	if stats.TasksFailed > 0 {
		ratio := float64(completed) / float64(len(tasks))
		if opts.MinProcessedRatio > 0 && ratio >= opts.MinProcessedRatio {
			return merged, nil // partial result accepted (§III-B)
		}
		if opts.PartialResults && completed > 0 {
			// Graceful degradation: return what completed; the dropped
			// tasks are reported per leaf in stats.TaskErrors.
			m.Partials.Inc()
			return merged, nil
		}
		if deadlineHit {
			return nil, fmt.Errorf("%w: %d/%d tasks", ErrDeadline, completed, len(tasks))
		}
		return nil, fmt.Errorf("cluster: %d of %d tasks failed permanently", stats.TasksFailed, len(tasks))
	}
	return merged, nil
}

// planHedges picks a backup leaf for every task placed on a
// straggler-flagged leaf (smoothed task time above StragglerFactor × the
// fleet median). The stem fires the backup after hedgeDelay, first result
// wins — the paper's backup-task defense, armed before the timeout fires.
func (m *Master) planHedges(tasks []plan.TaskSpec, assign map[int]string, opts QueryOptions) (map[int]string, time.Duration) {
	hedgeDelay := opts.HedgeDelay
	if hedgeDelay == 0 {
		hedgeDelay = m.cfg.HedgeDelay
	}
	if hedgeDelay <= 0 {
		return nil, 0
	}
	stragglers := m.Manager.Stragglers(KindLeaf, m.cfg.StragglerFactor)
	if len(stragglers) == 0 {
		return nil, 0
	}
	slow := make(map[string]bool, len(stragglers))
	for _, s := range stragglers {
		slow[s] = true
	}
	var backup map[int]string
	for _, t := range tasks {
		leaf := assign[t.Ordinal]
		if !slow[leaf] {
			continue
		}
		alt, err := m.Scheduler.Place(t, map[string]bool{leaf: true})
		if err != nil || alt == leaf {
			continue // nowhere else to hedge to
		}
		if backup == nil {
			backup = make(map[int]string)
		}
		backup[t.Ordinal] = alt
	}
	return backup, hedgeDelay
}

// retryTask issues backup tasks on other leaves until one succeeds or the
// retry budget runs out; d.Leaf is the leaf the first dispatch failed on.
// Leaves the cluster manager no longer reports alive (dead, degraded or
// suspect) are excluded from every attempt, and attempts are spaced by
// exponential backoff with deterministic jitter so a burst of failures does
// not hammer the survivors in lockstep.
func (m *Master) retryTask(ctx context.Context, p *plan.PhysicalPlan, t plan.TaskSpec, timeout time.Duration, d taskDone, qid string) (taskDone, *exec.TaskResult) {
	exclude := map[string]bool{d.Leaf: true}
	// The budget is the partition's: it counts executions that ran and
	// failed. A dispatch that found its leaf down ran nothing, costs nothing
	// and cannot repeat (the leaf is excluded), so it is not charged —
	// otherwise one dead leaf halves the tolerance to real read faults.
	budget := m.cfg.MaxTaskRetries
	if d.Unreachable {
		budget++
	}
	for attempt := 0; attempt < budget; attempt++ {
		if m.cfg.RetryBackoff > 0 {
			if !sleepCtx(ctx, retryDelay(m.cfg.RetryBackoff, t.Key(), attempt)) {
				return d, nil
			}
		}
		if ctx.Err() != nil {
			return d, nil
		}
		m.excludeUnhealthy(exclude)
		leaf, err := m.Scheduler.Place(t, exclude)
		if err != nil {
			return d, nil
		}
		d.backups++
		m.Retries.Inc()
		m.cfg.Events.Emit(events.TaskSite(qid, t.Ordinal), events.TaskRetry,
			qid, t.Ordinal, fmt.Sprintf("attempt %d on %s: %s", attempt+1, leaf, d.err))
		res, st := m.localStem.runOne(ctx, stemJobMsg{Plan: p, TaskTimeout: timeout, QueryID: qid}, t, leaf)
		st.Hedged = d.Hedged // what the first dispatch fired still counts
		d.taskStatus = st
		if st.OK {
			d.err = nil
			m.Manager.ReportTaskTime(leaf, st.Wall)
			return d, res
		}
		if st.Unreachable {
			m.Manager.MarkSuspect(leaf)
			budget++
		}
		d.err = errors.New(st.Err)
		exclude[leaf] = true
	}
	return d, nil
}

// excludeUnhealthy adds every leaf the manager does not report alive to the
// exclusion set, so retries never route to dead, degraded or suspect nodes.
func (m *Master) excludeUnhealthy(exclude map[string]bool) {
	for _, n := range m.Manager.Health().Nodes {
		if n.Kind == KindLeaf && n.State != StateAlive {
			exclude[n.Name] = true
		}
	}
}

// retryDelay computes the pause before a backup attempt: base<<attempt plus
// jitter in [0, base) hashed from the task key and attempt — deterministic
// (replayable under a chaos seed) yet decorrelated across tasks.
func retryDelay(base time.Duration, key string, attempt int) time.Duration {
	if attempt > 16 {
		attempt = 16
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", key, attempt)
	jitter := time.Duration(h.Sum64() % uint64(base))
	return base<<attempt + jitter
}

// sleepCtx pauses for d, returning false if the context ended first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// groupByStem maps each task to a stem server (by its assigned leaf), or to
// the master itself when no stems are alive. Groups keep task order.
func (m *Master) groupByStem(tasks []plan.TaskSpec, assign map[int]string) map[string][]plan.TaskSpec {
	stems := m.Manager.AliveWorkers(KindStem)
	out := make(map[string][]plan.TaskSpec)
	if len(stems) == 0 {
		out[m.cfg.Name] = tasks
		return out
	}
	// Stable leaf->stem mapping: hash by sorted-leaf index.
	leaves := make([]string, 0, len(assign))
	seen := make(map[string]bool)
	for _, l := range assign {
		if !seen[l] {
			seen[l] = true
			leaves = append(leaves, l)
		}
	}
	sort.Strings(leaves)
	stemOf := make(map[string]string, len(leaves))
	for i, l := range leaves {
		stemOf[l] = stems[i%len(stems)]
	}
	for _, t := range tasks {
		s := stemOf[assign[t.Ordinal]]
		out[s] = append(out[s], t)
	}
	return out
}

// callStem runs a stem job remotely, or locally when addressed to the
// master itself.
func (m *Master) callStem(ctx context.Context, stemName string, job stemJobMsg) (stemReply, error) {
	var raw any
	var err error
	if stemName == m.cfg.Name {
		raw, err = m.localStem.runJob(ctx, job)
	} else {
		raw, err = m.cfg.Fabric.Call(ctx, m.cfg.Name, stemName, transport.Control, job.wire(), 512)
	}
	if err != nil {
		return stemReply{}, err
	}
	reply, ok := raw.(stemReply)
	if !ok {
		return stemReply{}, fmt.Errorf("cluster: unexpected stem reply %T", raw)
	}
	return reply, nil
}

// colColumn wraps a column chunk for dimension materialization, exposing
// record-level values (repeated columns surface their first element).
type colColumn struct{ c *colstore.Column }

func (cc *colColumn) value(r int) types.Value {
	if cc.c.Offsets != nil {
		start, end := cc.c.Offsets[r], cc.c.Offsets[r+1]
		if start == end {
			return types.NullValue()
		}
		return cc.c.Value(int(start))
	}
	return cc.c.Value(r)
}
