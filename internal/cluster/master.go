package cluster

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
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
	// over the table stale.
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
				root = trace.New("master/query")
				stats.Trace = root
				cspan := root.Child("master/result-cache")
				cspan.SetAttr("status", outcome.String())
				cspan.Count("rows", int64(len(res.Rows)))
				cspan.Finish()
				root.Finish()
			}
			stats.WallTime = time.Since(start)
			if stmt.Analyze {
				return textResult("EXPLAIN ANALYZE", p.DescribeAnalyze(root)), stats, nil
			}
			return res, stats, nil
		}
		stats.ResultCache = resultcache.Miss.String()
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
		if stats.ReusedTasks > 0 {
			root.Count("tasks.reused", int64(stats.ReusedTasks))
		}
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
	// Store only complete results: no failed tasks, no partial/ratio
	// degradation — a cache must never replay a truncated answer.
	if m.cfg.ResultCache != nil && !opts.DisableResultCache &&
		stats.TasksFailed == 0 && !res.Partial && res.ProcessedRatio >= 1 {
		m.cfg.ResultCache.Store(p, cred.User, res)
	}
	if stmt.Analyze {
		return textResult("EXPLAIN ANALYZE", p.DescribeAnalyze(root)), stats, nil
	}
	return res, stats, nil
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
	checkTable := func(t *plan.TableMeta) error {
		for _, part := range t.Partitions {
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
		return nil
	}
	if err := checkTable(p.Fact().Meta); err != nil {
		return err
	}
	for _, d := range p.Dims {
		if err := checkTable(d.Table.Meta); err != nil {
			return err
		}
	}
	if sh := p.Shuffle; sh != nil && sh.Build != nil {
		if err := checkTable(sh.Build.Meta); err != nil {
			return err
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

// taskDone is one task's terminal outcome inside runAll.
type taskDone struct {
	ordinal  int
	res      *exec.TaskResult
	simTime  time.Duration
	scanSim  time.Duration
	leaf     string
	err      error
	reused   bool
	backups  int
	hedged   bool
	hedgeWon bool
	devBytes map[string]int64
	// unreachable: the first dispatch never ran (its leaf was down).
	unreachable bool
}

// runAll executes the task set with dedup, backup tasks and the early
// return policy, and merges the results.
func (m *Master) runAll(ctx context.Context, p *plan.PhysicalPlan, tasks []plan.TaskSpec, opts QueryOptions, stats *QueryStats, qid string, prog *progressHandle) (*exec.TaskResult, error) {
	results := make(chan taskDone, len(tasks))

	// Split into owned tasks (we execute) and reused tasks (an identical
	// task is already running in another job).
	var owned []plan.TaskSpec
	futures := make(map[int]*taskFuture, len(tasks))
	owner := make(map[int]*taskFuture)
	for _, t := range tasks {
		if opts.DisableReuse {
			f := &taskFuture{done: make(chan struct{})}
			owner[t.Ordinal] = f
			futures[t.Ordinal] = f
			owned = append(owned, t)
			continue
		}
		f, isOwner := m.Jobs.claimTask(t.Key())
		futures[t.Ordinal] = f
		if isOwner {
			owner[t.Ordinal] = f
			owned = append(owned, t)
		} else {
			stats.ReusedTasks++
			go func(t plan.TaskSpec, f *taskFuture) {
				select {
				case <-f.done:
					results <- taskDone{ordinal: t.Ordinal, res: f.result, err: f.err, reused: true}
				case <-ctx.Done():
					results <- taskDone{ordinal: t.Ordinal, err: ctx.Err(), reused: true}
				}
			}(t, f)
		}
	}

	timeout := opts.TaskTimeout
	if timeout == 0 {
		timeout = m.cfg.DefaultTaskTimeout
	}

	// Dispatch owned tasks grouped per stem; fall back to direct leaf
	// calls when no stem servers are alive.
	// heldSlots tracks owned tasks' placement slots (charged by PlanAll);
	// each is released when the task's terminal outcome is collected, so
	// concurrent queries' placements see each other's live claims. Only the
	// collection loop below touches it.
	heldSlots := make(map[int]string)
	defer func() {
		for _, leaf := range heldSlots {
			m.Scheduler.ReleaseTask(leaf)
		}
	}()
	if len(owned) > 0 {
		assign, err := m.Scheduler.PlanAll(owned)
		if err != nil {
			// Complete owned futures so concurrent sharers unblock.
			for _, t := range owned {
				if f := owner[t.Ordinal]; f != nil {
					m.completeOwned(opts, t, f, nil, err)
				}
			}
			return nil, err
		}
		// Each dispatch goroutine reports every task of its group on the
		// results channel (buffered to len(tasks)), so the collection loop
		// below is the synchronization point — no WaitGroup needed, and the
		// `go func() { wg.Wait() }()` this used to launch leaked a goroutine
		// per query.
		for ord, leaf := range assign {
			heldSlots[ord] = leaf
		}
		for _, t := range owned {
			m.cfg.Events.Emit(events.TaskSite(qid, t.Ordinal), events.TaskScheduled,
				qid, t.Ordinal, assign[t.Ordinal])
		}
		backup, hedgeDelay := m.planHedges(owned, assign, opts)
		byStem := m.groupByStem(owned, assign)
		for stemName, group := range byStem {
			go func(stemName string, group []plan.TaskSpec) {
				prog.update(func(p *QueryProgress) { p.TasksDispatched += len(group) })
				job := stemJobMsg{Plan: p, Tasks: group, Assign: assign, TaskTimeout: timeout,
					PerTask: !opts.DisableReuse, Backup: backup, HedgeDelay: hedgeDelay,
					LeafSlots: m.Scheduler.SlotsPerLeaf, QueryID: qid}
				reply, err := m.callStem(ctx, stemName, job)
				for _, t := range group {
					d := taskDone{ordinal: t.Ordinal, leaf: assign[t.Ordinal]}
					if err != nil {
						d.err = err
					} else if st, ok := reply.Status[t.Ordinal]; ok && st.OK {
						d.simTime = st.SimTime
						d.scanSim = st.ScanSim
						d.devBytes = st.DevBytes
						d.res = reply.PerTask[t.Ordinal]
						d.leaf = st.Leaf // the winning attempt's leaf (may be the hedge backup)
						d.hedged, d.hedgeWon = st.Hedged, st.HedgeWon
						m.Manager.ReportTaskTime(st.Leaf, st.Wall)
					} else if ok {
						d.err = errors.New(st.Err)
						d.hedged = st.Hedged
						if st.Unreachable {
							// Dispatch hit an unknown/down node: suspect it now
							// rather than waiting out the liveness window.
							m.Manager.MarkSuspect(st.Leaf)
							d.unreachable = true
						}
					} else {
						d.err = fmt.Errorf("cluster: stem %s lost task %d", stemName, t.Ordinal)
					}
					// Backup tasks: reschedule failures on other leaves.
					if d.err != nil {
						d = m.retryTask(ctx, p, t, assign[t.Ordinal], timeout, d, qid)
					}
					if f := owner[t.Ordinal]; f != nil {
						m.completeOwned(opts, t, f, d.res, d.err)
					}
					results <- d
				}
			}(stemName, group)
		}
	}

	// Collect.
	var merged *exec.TaskResult
	completed := 0
	leafBusy := make(map[string]time.Duration)
	leafScan := make(map[string]time.Duration)
	devBytes := make(map[string]int64)
	deadlineHit := false
	for i := 0; i < len(tasks); i++ {
		select {
		case d := <-results:
			if leaf, ok := heldSlots[d.ordinal]; ok {
				m.Scheduler.ReleaseTask(leaf)
				delete(heldSlots, d.ordinal)
			}
			if d.hedged {
				stats.HedgedTasks++
				m.HedgesFired.Inc()
			}
			if d.hedgeWon {
				stats.HedgesWon++
				m.HedgesWon.Inc()
			}
			if d.err != nil {
				stats.TasksFailed++
				stats.TaskErrors = append(stats.TaskErrors, TaskError{Ordinal: d.ordinal, Leaf: d.leaf, Err: d.err.Error()})
				m.cfg.Events.Emit(events.TaskSite(qid, d.ordinal), events.TaskPartial,
					qid, d.ordinal, d.err.Error())
				prog.update(func(p *QueryProgress) {
					p.TasksFailed++
					if d.hedged {
						p.TasksHedged++
					}
					p.TasksRetried += d.backups
				})
				continue
			}
			completed++
			stats.BackupTasks += d.backups
			if d.leaf != "" {
				leafBusy[d.leaf] += d.simTime
				leafScan[d.leaf] += d.scanSim
			}
			for dev, n := range d.devBytes {
				devBytes[dev] += n
			}
			rows := 0
			if d.res != nil {
				rows = len(d.res.Rows)
			}
			detail := fmt.Sprintf("%s rows=%d", d.leaf, rows)
			if d.reused {
				detail = fmt.Sprintf("reused rows=%d", rows)
			}
			m.cfg.Events.EmitSim(events.TaskSite(qid, d.ordinal), events.TaskCollected,
				qid, d.ordinal, d.simTime, detail)
			prog.update(func(p *QueryProgress) {
				p.TasksDone++
				if d.hedged {
					p.TasksHedged++
				}
				p.TasksRetried += d.backups
				if d.reused {
					p.TasksReused++
				}
				p.Rows += int64(rows)
			})
			merged = exec.MergeResults(p, merged, cloneResult(d.res))
		case <-ctx.Done():
			deadlineHit = true
			stats.TasksFailed = len(tasks) - completed
			i = len(tasks) // drain no further
		}
		if deadlineHit {
			break
		}
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

// planHedges picks a backup leaf for every owned task placed on a
// straggler-flagged leaf (smoothed task time above StragglerFactor × the
// fleet median). The stem fires the backup after hedgeDelay, first result
// wins — the paper's backup-task defense, armed before the timeout fires.
func (m *Master) planHedges(owned []plan.TaskSpec, assign map[int]string, opts QueryOptions) (map[int]string, time.Duration) {
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
	for _, t := range owned {
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

// completeOwned publishes an owned task's outcome to sharers.
func (m *Master) completeOwned(opts QueryOptions, t plan.TaskSpec, f *taskFuture, res *exec.TaskResult, err error) {
	if opts.DisableReuse {
		f.result, f.err = res, err
		close(f.done)
		return
	}
	m.Jobs.completeTask(t.Key(), f, res, err)
}

// retryTask issues backup tasks on other leaves until one succeeds or the
// retry budget runs out. Leaves the cluster manager no longer reports alive
// (dead, degraded or suspect) are excluded from every attempt, and attempts
// are spaced by exponential backoff with deterministic jitter so a burst of
// failures does not hammer the survivors in lockstep.
func (m *Master) retryTask(ctx context.Context, p *plan.PhysicalPlan, t plan.TaskSpec, firstLeaf string, timeout time.Duration, d taskDone, qid string) taskDone {
	exclude := map[string]bool{firstLeaf: true}
	// The budget is the partition's: it counts executions that ran and
	// failed. A dispatch that found its leaf down ran nothing, costs nothing
	// and cannot repeat (the leaf is excluded), so it is not charged —
	// otherwise one dead leaf halves the tolerance to real read faults.
	budget := m.cfg.MaxTaskRetries
	if d.unreachable {
		budget++
	}
	for attempt := 0; attempt < budget; attempt++ {
		if m.cfg.RetryBackoff > 0 {
			if !sleepCtx(ctx, retryDelay(m.cfg.RetryBackoff, t.Key(), attempt)) {
				return d
			}
		}
		if ctx.Err() != nil {
			return d
		}
		m.excludeUnhealthy(exclude)
		leaf, err := m.Scheduler.Place(t, exclude)
		if err != nil {
			return d
		}
		d.backups++
		m.Retries.Inc()
		m.cfg.Events.Emit(events.TaskSite(qid, t.Ordinal), events.TaskRetry,
			qid, t.Ordinal, fmt.Sprintf("attempt %d on %s: %s", attempt+1, leaf, d.err))
		res, st := m.localStem.runOne(ctx, stemJobMsg{Plan: p, TaskTimeout: timeout, QueryID: qid}, t, leaf)
		if st.OK {
			d.res, d.err, d.leaf, d.simTime = res, nil, leaf, st.SimTime
			d.scanSim = st.ScanSim
			d.devBytes = st.DevBytes
			m.Manager.ReportTaskTime(leaf, st.Wall)
			return d
		}
		if st.Unreachable {
			m.Manager.MarkSuspect(leaf)
			budget++
		}
		d.err = errors.New(st.Err)
		d.leaf = leaf
		exclude[leaf] = true
	}
	return d
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

// groupByStem maps each owned task to a stem server (by its assigned
// leaf), or to the master itself when no stems are alive.
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

// stemCallReply wraps a stem's reply with per-task results split out.
type stemCallReply struct {
	Status  map[int]taskStatus
	PerTask map[int]*exec.TaskResult
}

// callStem runs a stem job remotely, or locally when addressed to the
// master itself. With result sharing on, stems return per-task results so
// identical-task futures hold exact payloads; with sharing off, stems merge
// bottom-up and the merged result is attributed to the first successful
// ordinal (correct under the master's final merge).
func (m *Master) callStem(ctx context.Context, stemName string, job stemJobMsg) (stemCallReply, error) {
	var raw any
	var err error
	if stemName == m.cfg.Name {
		raw, err = m.localStem.runJob(ctx, job)
	} else {
		raw, err = m.cfg.Fabric.Call(ctx, m.cfg.Name, stemName, transport.Control, job.wire(), 512)
	}
	if err != nil {
		return stemCallReply{}, err
	}
	reply, ok := raw.(stemReply)
	if !ok {
		return stemCallReply{}, fmt.Errorf("cluster: unexpected stem reply %T", raw)
	}
	out := stemCallReply{Status: reply.Status, PerTask: reply.PerTask}
	if job.PerTask {
		return out, nil
	}
	out.PerTask = make(map[int]*exec.TaskResult, len(job.Tasks))
	attributed := false
	for _, t := range job.Tasks {
		st := reply.Status[t.Ordinal]
		if !st.OK {
			continue
		}
		if !attributed {
			out.PerTask[t.Ordinal] = reply.Merged
			attributed = true
		} else {
			out.PerTask[t.Ordinal] = emptyResult(job.Plan)
		}
	}
	return out, nil
}

func emptyResult(p *plan.PhysicalPlan) *exec.TaskResult {
	r := &exec.TaskResult{}
	if p.Mode == plan.ModeAgg {
		r.Groups = exec.NewGroups(len(p.Aggs))
	}
	return r
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
