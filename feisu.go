// Package feisu is a reproduction of Feisu, Baidu's columnar data
// processing system for heterogeneous storage (Qin et al., "Feisu: Fast
// Query Execution over Heterogeneous Data Sources on Large-Scale Clusters",
// ICDE 2017).
//
// A System is an in-process Feisu deployment: a master, optional stem
// servers, and leaf servers co-located with simulated heterogeneous storage
// (local FS, an HDFS-like replicated DFS under /hdfs/..., and a Fatman-like
// cold archive under /ffs/...). Queries use the paper's star-schema SQL
// subset and are accelerated by SmartIndex, the paper's adaptive
// predicate-result index.
//
// Quickstart:
//
//	sys, _ := feisu.New(feisu.Config{Leaves: 4})
//	defer sys.Close()
//	ld, _ := sys.NewLoader("visits", schema, "/hdfs/visits")
//	ld.Append(feisu.Row{feisu.Int(1), feisu.Str("http://a")})
//	ld.Close()
//	res, _ := sys.Query(ctx, "SELECT COUNT(*) FROM visits WHERE id > 0")
package feisu

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/resultcache"
	"repro/internal/sim"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/types"
)

// Re-exported data-model types, so applications only import feisu.
type (
	// Value is one scalar value.
	Value = types.Value
	// Row is one tuple.
	Row = types.Row
	// Field describes one column.
	Field = types.Field
	// Schema is an ordered field list.
	Schema = types.Schema
	// Result is a query result set.
	Result = exec.Result
	// QueryStats reports how a query executed.
	QueryStats = cluster.QueryStats
	// Priority is a query's admission class.
	Priority = cluster.Priority
	// OverloadedError is the typed load-shedding error returned when
	// admission control sheds a query; it carries a retry-after hint.
	OverloadedError = cluster.OverloadedError
)

// Admission priority classes.
const (
	// PriorityInteractive is the default class (larger weighted-fair share).
	PriorityInteractive = cluster.PriorityInteractive
	// PriorityBatch marks throughput-oriented queries that yield to
	// interactive traffic under load.
	PriorityBatch = cluster.PriorityBatch
)

// ErrOverloaded matches (errors.Is) every admission-control shed.
var ErrOverloaded = cluster.ErrOverloaded

// Scalar type tags for Field definitions.
const (
	Int64   = types.Int64
	Float64 = types.Float64
	Bool    = types.Bool
	String  = types.String
)

// Int builds an Int64 value.
func Int(v int64) Value { return types.NewInt(v) }

// Float builds a Float64 value.
func Float(v float64) Value { return types.NewFloat(v) }

// Str builds a String value.
func Str(v string) Value { return types.NewString(v) }

// Boolean builds a Bool value.
func Boolean(v bool) Value { return types.NewBool(v) }

// Null builds the NULL value.
func Null() Value { return types.NullValue() }

// NewSchema builds a schema.
func NewSchema(fields ...Field) (*Schema, error) { return types.NewSchema(fields...) }

// MustSchema builds a schema, panicking on error.
func MustSchema(fields ...Field) *Schema { return types.MustSchema(fields...) }

// IndexKind selects the leaf servers' index.
type IndexKind int

// Index kinds.
const (
	// IndexSmart is the paper's SmartIndex (default).
	IndexSmart IndexKind = iota
	// IndexBTree is the Fig. 9(b) B-tree baseline.
	IndexBTree
	// IndexNone disables indexing.
	IndexNone
)

// Config shapes a System.
type Config struct {
	// Leaves is the leaf-server count (default 4). Leaves double as
	// datanodes of the simulated HDFS and Fatman stores.
	Leaves int
	// Stems is the stem-server count (default Leaves/4, min 1 when
	// Leaves >= 4).
	Stems int
	// Index selects the leaf index implementation.
	Index IndexKind
	// IndexMemoryBytes budgets each leaf's SmartIndex (paper default:
	// 512 MB per server; scaled deployments pass a smaller number).
	// <=0 means unlimited.
	IndexMemoryBytes int64
	// IndexTTL overrides the 72-hour SmartIndex TTL.
	IndexTTL time.Duration
	// IndexCompress parks index bitmaps RLE-compressed.
	IndexCompress bool
	// IndexNoDerivation disables SmartIndex's complement/range derived
	// answers (ablation of the paper's Fig. 7 rewriting).
	IndexNoDerivation bool
	// CacheBytes enables the SSD column cache per leaf; 0 disables.
	CacheBytes int64
	// CachePrefixes are the manually preferred paths admitted to the SSD
	// cache (paper §IV-B).
	CachePrefixes []string
	// ResultCacheBytes enables the master's semantic result cache with this
	// byte budget; 0 disables. Hits are keyed by the normalized plan
	// fingerprint (literals lifted to placeholders), so `b > 10` and
	// `b > 20` share a shape, and subsumption lets a cached wider range
	// answer a narrower one by re-filtering. Entries invalidate on table
	// registration and ingest.
	ResultCacheBytes int64
	// ResultCacheTTL bounds result-cache entry freshness (default 5m when
	// the cache is enabled; negative disables expiry).
	ResultCacheTTL time.Duration
	// ResultCacheTenantBytes caps any one tenant's (auth user's) resident
	// result-cache bytes; 0 means no per-tenant cap.
	ResultCacheTenantBytes int64
	// CacheAffinity routes tasks for the same partition to the same leaf
	// (rendezvous hashing, data holders preferred) while slot caps allow,
	// so leaf footer/SSD caches keep hitting across repeated queries.
	CacheAffinity bool
	// SpillThreshold routes leaf results bigger than this through global
	// storage (paper §V-C); 0 disables.
	SpillThreshold int64
	// TaskTimeout is the straggler threshold for backup tasks.
	TaskTimeout time.Duration
	// EnableAuth turns on the entry guard; obtain tokens via Authority().
	EnableAuth bool
	// MaxConcurrentQueriesPerUser is the entry-guard quota (with auth).
	MaxConcurrentQueriesPerUser int
	// LocalityOff disables locality-aware scheduling (ablation).
	LocalityOff bool
	// PersonalizeThreshold enables client-history personalization: a
	// predicate repeated this many times is pinned in SmartIndex as a
	// private index (paper §III-C). 0 disables.
	PersonalizeThreshold int
	// HeartbeatInterval paces the workers' liveness heartbeats (and the
	// SmartIndex TTL sweeper). 0 uses 10s; negative disables background
	// heartbeats entirely (tests drive them manually via Heartbeat).
	HeartbeatInterval time.Duration
	// StorageMaxConcurrentReads enforces the paper's resource-consumption
	// agreement (§V-A) against each simulated storage system: at most this
	// many Feisu reads in flight per store. 0 means unlimited.
	StorageMaxConcurrentReads int
	// SlowQueryWallThreshold records queries whose wall time reaches it in
	// the slow-query log; <=0 disables the wall criterion.
	SlowQueryWallThreshold time.Duration
	// SlowQuerySimThreshold is the simulated-time criterion for the
	// slow-query log; <=0 disables it. With either threshold set, every
	// query is traced so slow entries carry a per-stage breakdown (the
	// trace also becomes visible in QueryStats.Trace).
	SlowQuerySimThreshold time.Duration
	// Chaos enables the deterministic fault-injection plane (internal/chaos)
	// over the deployment's transport, stores and leaf lifecycle. nil runs
	// fault-free. With Chaos.Lifecycle.TickInterval > 0 the controller ticks
	// in the background; otherwise drive it via ChaosTick.
	Chaos *chaos.Config
	// HedgeDelay is how long a stem waits on a straggler-flagged leaf
	// before firing a speculative duplicate task; 0 uses the master's
	// default, negative disables hedging.
	HedgeDelay time.Duration
	// ScanWorkers bounds each leaf task's intra-task scan parallelism
	// (goroutines scanning a partition's blocks concurrently). 0 defaults
	// to GOMAXPROCS on the leaf; negative forces serial scans. Query
	// results are identical for any setting.
	ScanWorkers int
	// MaxConcurrentQueries caps queries executing at once; excess
	// submissions wait in the master's admission queue (weighted-fair
	// between priority classes) and are shed with ErrOverloaded beyond
	// MaxQueueDepth. <=0 disables admission control.
	MaxConcurrentQueries int
	// MaxQueueDepth bounds each priority class's admission queue; 0
	// defaults to 2×MaxConcurrentQueries.
	MaxQueueDepth int
	// QueueWaitDeadline sheds queries still queued after this wait; 0 lets
	// them wait as long as their context allows.
	QueueWaitDeadline time.Duration
	// LeafSlots caps concurrent task dispatches per leaf: the scheduler
	// prefers leaves with spare slots and stems bound in-flight calls per
	// leaf. <=0 means unbounded.
	LeafSlots int
	// BroadcastThreshold is the cataloged byte size above which a join's
	// build table is hash-repartitioned across the stems instead of
	// broadcast to every leaf. 0 uses the default (16 MB); negative
	// repartitions every eligible join.
	BroadcastThreshold int64
	// ShufflePartitions is the repartition fan-out (hash partitions per
	// shuffle). <=0 uses 4.
	ShufflePartitions int
	// GroupShuffleRows repartitions a grouped aggregation whose fact table
	// reaches this many cataloged rows, merging groups at the stems instead
	// of the master. 0 uses the default (1M rows); negative disables it.
	GroupShuffleRows int64
	// ShuffleMemoryBytes is each reducer operator's memory grant during a
	// shuffle; past it the build table or group state grace-hash spills to
	// global storage. <=0 uses 64 MB.
	ShuffleMemoryBytes int64
	// Transport selects the cluster RPC fabric: "sim" (default) keeps every
	// node in-process behind the deterministic simulated fabric; "tcp" routes
	// every cluster RPC over real loopback sockets through the wire codec.
	// Empty falls back to the FEISU_TRANSPORT environment variable, then
	// "sim". The two transports satisfy the same transport.Network seam, so
	// chaos, schedulers and tests behave identically on either.
	Transport string
}

// rackSize groups leaves into racks of this size for the topology and
// replica placement.
const rackSize = 4

// System is an in-process Feisu deployment.
type System struct {
	cfg    Config
	model  *sim.CostModel
	fabric transport.Network
	// tcpNet is set when cfg.Transport resolved to "tcp"; retained so Close
	// can tear down the listener and connection pools.
	tcpNet *transport.TCP
	router *storage.Router
	hdfs   *storage.DFS
	ffs    *storage.DFS
	master *cluster.Master
	leaves []*cluster.LeafServer
	stems  []*cluster.StemServer
	auth   *auth.Authority
	caches []*cache.Reader
	// readers are the per-leaf store readers (inside any SSD cache wrapper);
	// retained so ingest can invalidate their footer caches on rewrite.
	readers  []*exec.StoreReader
	rescache *resultcache.Cache
	// plannerOpts mirror the master's shuffle-planner tuning so Explain
	// describes the plan the cluster would actually run.
	plannerOpts plan.Options
	smart       []*core.SmartIndex
	history     *History
	metrics     *metrics.Registry
	slowlog     *telemetry.Slowlog
	events      *events.Recorder
	traces      *trace.Store
	// latWall/latSim are the fleet-level query latency histograms exported
	// as feisu_query_wall_seconds / feisu_query_sim_seconds.
	latWall *metrics.Histogram
	latSim  *metrics.Histogram

	chaosPlane *chaos.Plane
	chaosCtl   *chaos.Controller
	// beatInterval is the background heartbeat cadence (0 when heartbeats
	// are manual); chaos restarts use it to resume a revived leaf's loop.
	beatInterval time.Duration

	convMu sync.Mutex
	convs  map[string]*ingest.Converter

	sweepStop chan struct{}
}

// New builds and starts a System.
func New(cfg Config) (*System, error) {
	if cfg.Leaves <= 0 {
		cfg.Leaves = 4
	}
	if cfg.Stems == 0 && cfg.Leaves >= 4 {
		cfg.Stems = cfg.Leaves / 4
	}
	if cfg.Stems < 0 { // explicit "no stems": master drives leaves directly
		cfg.Stems = 0
	}
	model := sim.DefaultCostModel()

	topo := transport.NewTopology()
	mode := cfg.Transport
	if mode == "" {
		mode = os.Getenv("FEISU_TRANSPORT")
	}
	var fabric transport.Network
	var tcpNet *transport.TCP
	switch mode {
	case "", "sim":
		fabric = transport.NewFabric(topo, transport.Options{Model: model})
	case "tcp":
		var err error
		tcpNet, err = transport.NewTCP(topo, transport.Options{Model: model}, transport.TCPOptions{})
		if err != nil {
			return nil, fmt.Errorf("feisu: tcp transport: %w", err)
		}
		fabric = tcpNet
	default:
		return nil, fmt.Errorf("feisu: unknown transport %q (want \"sim\" or \"tcp\")", mode)
	}

	// Backup-task attempts back off exponentially from 1ms under injected
	// faults; a fault-free deployment retries immediately.
	var plane *chaos.Plane
	var retryBackoff time.Duration
	if cfg.Chaos != nil {
		plane = chaos.New(*cfg.Chaos)
		retryBackoff = time.Millisecond
	}
	// wrapStore threads every store through the chaos plane so injected
	// read faults hit all tiers (local FS, HDFS, Fatman) uniformly.
	wrapStore := func(s storage.Store) storage.Store {
		if plane == nil {
			return s
		}
		return plane.WrapStore(s)
	}

	hdfs := storage.NewHDFS("hdfs", model)
	ffs := storage.NewFatman("ffs", model)
	router := storage.NewRouter(wrapStore(storage.NewMemFS("", model)))
	if cfg.StorageMaxConcurrentReads > 0 {
		// The paper's resource agreement: Feisu must not over-schedule
		// reads against a business-critical storage system.
		agreement := storage.Agreement{MaxConcurrentReads: cfg.StorageMaxConcurrentReads}
		router.Register(wrapStore(storage.NewThrottled(hdfs, agreement)))
		router.Register(wrapStore(storage.NewThrottled(ffs, agreement)))
	} else {
		router.Register(wrapStore(hdfs))
		router.Register(wrapStore(ffs))
	}

	sys := &System{
		cfg: cfg, model: model, fabric: fabric, tcpNet: tcpNet, router: router, hdfs: hdfs, ffs: ffs,
		metrics: metrics.NewRegistry(),
		events:  events.New(events.DefaultCapacity),
		traces:  trace.NewStore(trace.DefaultStoreSize),
	}
	sys.latWall = sys.metrics.HistogramWith("feisu_query_wall_seconds")
	sys.latSim = sys.metrics.HistogramWith("feisu_query_sim_seconds")
	if cfg.SlowQueryWallThreshold > 0 || cfg.SlowQuerySimThreshold > 0 {
		// Capacity 0: the ring's own default, 128 entries.
		sys.slowlog = telemetry.NewSlowlog(0, cfg.SlowQueryWallThreshold, cfg.SlowQuerySimThreshold)
	}
	sys.metrics.RegisterGaugeFunc("feisu_events_recorded_total", func() float64 { return float64(sys.events.Total()) })
	sys.metrics.RegisterGaugeFunc("feisu_events_dropped_total", func() float64 { return float64(sys.events.Dropped()) })

	leafName := func(i int) string { return fmt.Sprintf("leaf%d", i) }
	for i := 0; i < cfg.Leaves; i++ {
		rack := fmt.Sprintf("rack%d", i/rackSize)
		topo.Place(leafName(i), rack, "dc1")
		hdfs.AddNode(leafName(i), rack)
		ffs.AddNode(leafName(i), rack)
	}
	topo.Place("master", "rack-master", "dc1")

	var authority *auth.Authority
	var quotas *auth.Quotas
	if cfg.EnableAuth {
		authority = auth.NewAuthority()
		quotas = auth.NewQuotas(cfg.MaxConcurrentQueriesPerUser, 0)
	}
	sys.auth = authority

	if cfg.ResultCacheBytes > 0 {
		ttl := cfg.ResultCacheTTL
		if ttl == 0 {
			ttl = 5 * time.Minute
		} else if ttl < 0 {
			ttl = 0 // explicit "no expiry"
		}
		sys.rescache = resultcache.New(resultcache.Config{
			CapacityBytes: cfg.ResultCacheBytes,
			TTL:           ttl,
			TenantBytes:   cfg.ResultCacheTenantBytes,
			Events:        sys.events,
		})
		rc := sys.rescache
		sys.metrics.RegisterGaugeFunc("feisu_resultcache_hits_total", func() float64 { return float64(rc.Snapshot().Hits) })
		sys.metrics.RegisterGaugeFunc("feisu_resultcache_subsumed_hits_total", func() float64 { return float64(rc.Snapshot().SubsumedHits) })
		sys.metrics.RegisterGaugeFunc("feisu_resultcache_misses_total", func() float64 { return float64(rc.Snapshot().Misses) })
		sys.metrics.RegisterGaugeFunc("feisu_resultcache_evictions_total", func() float64 { return float64(rc.Snapshot().Evictions) })
		sys.metrics.RegisterGaugeFunc("feisu_resultcache_invalidations_total", func() float64 { return float64(rc.Snapshot().Invalidations) })
		sys.metrics.RegisterGaugeFunc("feisu_resultcache_bytes", func() float64 { return float64(rc.Snapshot().Bytes) })
		sys.metrics.RegisterGaugeFunc("feisu_resultcache_entries", func() float64 { return float64(rc.Snapshot().Entries) })
		sys.metrics.RegisterGaugeFunc("feisu_resultcache_hit_ratio", rc.HitRatio)
		// Shadow ratio: the hit rate a 2× budget would reach (ghost LRU).
		sys.metrics.RegisterGaugeFunc("feisu_resultcache_shadow_hit_ratio", rc.ShadowHitRatio)
		sys.metrics.GaugeWith("feisu_resultcache_capacity_bytes").Set(float64(cfg.ResultCacheBytes))
	}

	mcfg := cluster.MasterConfig{
		Name:               "master",
		Fabric:             fabric,
		Router:             router,
		Model:              model,
		Authority:          authority,
		Quotas:             quotas,
		MaxQueryBytes:      1 << 20,
		DefaultTaskTimeout: cfg.TaskTimeout,
		RetryBackoff:       retryBackoff,
		HedgeDelay:         cfg.HedgeDelay,
		ScanWorkers:        cfg.ScanWorkers,
		LivenessWindow:     time.Minute,
		LocalityOff:        cfg.LocalityOff,
		Metrics:            sys.metrics,

		MaxConcurrentQueries: cfg.MaxConcurrentQueries,
		MaxQueueDepth:        cfg.MaxQueueDepth,
		QueueWaitDeadline:    cfg.QueueWaitDeadline,
		LeafSlots:            cfg.LeafSlots,

		ResultCache:   sys.rescache,
		CacheAffinity: cfg.CacheAffinity,
		Events:        sys.events,

		Planner: plan.Options{
			BroadcastThreshold: cfg.BroadcastThreshold,
			ShufflePartitions:  cfg.ShufflePartitions,
			GroupShuffleRows:   cfg.GroupShuffleRows,
			MemoryGrantBytes:   cfg.ShuffleMemoryBytes,
		},
	}
	if cfg.PersonalizeThreshold > 0 {
		sys.history = &History{
			sys:       sys,
			threshold: cfg.PersonalizeThreshold,
			counts:    make(map[string]map[string]int),
			pinned:    make(map[string]bool),
		}
		mcfg.Observer = sys.history
	}
	sys.plannerOpts = mcfg.Planner
	sys.master = cluster.NewMaster(mcfg)
	sys.metrics.RegisterCounterWith("feisu_queries_total", &sys.master.Queries)
	sys.metrics.RegisterCounterWith("feisu_query_errors_total", &sys.master.QueryErrs)
	sys.metrics.RegisterCounterWith("feisu_task_retries_total", &sys.master.Retries)
	sys.metrics.RegisterCounterWith("feisu_hedges_fired_total", &sys.master.HedgesFired)
	sys.metrics.RegisterCounterWith("feisu_hedges_won_total", &sys.master.HedgesWon)
	sys.metrics.RegisterCounterWith("feisu_partial_results_total", &sys.master.Partials)

	for i := 0; i < cfg.Leaves; i++ {
		sr := exec.NewStoreReader(router)
		sys.readers = append(sys.readers, sr)
		var reader exec.PartitionReader = sr
		leafLabel := metrics.L("leaf", leafName(i))
		if cfg.CacheBytes > 0 {
			cr := cache.NewReader(reader, cache.Options{
				CapacityBytes: cfg.CacheBytes,
				Prefixes:      cfg.CachePrefixes,
				Model:         model,
			})
			cr.RegisterMetrics(sys.metrics, leafName(i)+".cache.")
			sys.metrics.RegisterCounterWith("feisu_cache_hits_total", &cr.Hits, leafLabel)
			sys.metrics.RegisterCounterWith("feisu_cache_misses_total", &cr.Misses, leafLabel)
			sys.metrics.RegisterCounterWith("feisu_cache_evictions_total", &cr.Evictions, leafLabel)
			sys.metrics.RegisterGaugeFunc("feisu_cache_bytes", func() float64 { return float64(cr.Bytes()) }, leafLabel)
			sys.metrics.GaugeWith("feisu_cache_capacity_bytes", leafLabel).Set(float64(cfg.CacheBytes))
			sys.metrics.RegisterGaugeFunc("feisu_cache_hit_ratio", func() float64 {
				h, m := cr.Hits.Value(), cr.Misses.Value()
				if h+m == 0 {
					return 0
				}
				return float64(h) / float64(h+m)
			}, leafLabel)
			sys.caches = append(sys.caches, cr)
			reader = cr
		}
		idx := sys.newIndex()
		if si, ok := idx.(*core.SmartIndex); ok {
			si.RegisterMetrics(sys.metrics, leafName(i)+".index.")
			sys.metrics.RegisterGaugeFunc("feisu_index_bytes", func() float64 {
				_, bytes, _ := si.IndexLoad()
				return float64(bytes)
			}, leafLabel)
			sys.metrics.RegisterGaugeFunc("feisu_index_entries", func() float64 {
				entries, _, _ := si.IndexLoad()
				return float64(entries)
			}, leafLabel)
			if cfg.IndexMemoryBytes > 0 {
				sys.metrics.GaugeWith("feisu_index_budget_bytes", leafLabel).Set(float64(cfg.IndexMemoryBytes))
			}
		}
		leaf := &cluster.LeafServer{
			Name:           leafName(i),
			Fabric:         fabric,
			Reader:         reader,
			Index:          idx,
			Router:         router,
			Model:          model,
			SpillThreshold: cfg.SpillThreshold,
			SpillPrefix:    "/hdfs/feisu-tmp",
			Events:         sys.events,
		}
		leaf.Register()
		leaf.RegisterMetrics(sys.metrics, leafName(i)+".")
		sys.metrics.RegisterCounterWith("feisu_leaf_tasks_total", &leaf.Tasks, leafLabel)
		sys.metrics.RegisterCounterWith("feisu_leaf_spills_total", &leaf.Spills, leafLabel)
		sys.leaves = append(sys.leaves, leaf)
	}
	for i := 0; i < cfg.Stems; i++ {
		stem := &cluster.StemServer{
			Name:   fmt.Sprintf("stem%d", i),
			Fabric: fabric,
			Router: router,
			Model:  model,
			Events: sys.events,
		}
		stem.Register()
		sys.stems = append(sys.stems, stem)
	}
	if err := sys.Heartbeat(); err != nil {
		return nil, err
	}
	// Keep the cluster manager's liveness view fresh without caller
	// involvement; long-running query streams would otherwise outlive the
	// liveness window and see "no available leaf server".
	if cfg.HeartbeatInterval >= 0 {
		interval := cfg.HeartbeatInterval
		if interval == 0 {
			interval = 10 * time.Second
		}
		sys.StartHeartbeats(interval)
	}
	if plane != nil {
		// Mirror every fired fault into the flight recorder so incident
		// timelines interleave faults with the decisions they caused. The
		// chaos plane's own per-site sequence is deterministic; the bridge
		// keeps each chaos site distinct ("chaos/<site>").
		plane.SetSink(func(e chaos.Event) {
			sys.events.Emit("chaos/"+e.Site, events.Kind(events.ChaosPrefix+e.Kind), "", -1, e.Detail)
		})
		// Arm the interceptor only after boot: the initial heartbeat round
		// that registers every worker must not itself be dropped, or the
		// deployment would start with phantom-dead leaves.
		fabric.SetInterceptor(plane)
		sys.chaosPlane = plane
		plane.RegisterMetrics(sys.metrics)
		targets := make([]chaos.Target, len(sys.leaves))
		for i, l := range sys.leaves {
			targets[i] = &leafTarget{sys: sys, leaf: l}
		}
		peers := []string{"master"}
		for _, st := range sys.stems {
			peers = append(peers, st.Name)
		}
		sys.chaosCtl = plane.NewController(targets, peers)
		sys.chaosCtl.Start() // no-op unless Lifecycle.TickInterval > 0
	}
	return sys, nil
}

// leafTarget adapts a leaf server to the chaos controller: a kill takes the
// node off the fabric and halts its heartbeats, a restart re-registers it
// and announces liveness immediately.
type leafTarget struct {
	sys  *System
	leaf *cluster.LeafServer
}

func (t *leafTarget) ID() string { return t.leaf.Name }

func (t *leafTarget) Kill() {
	t.sys.fabric.SetDown(t.leaf.Name, true)
	t.leaf.Stop()
}

func (t *leafTarget) Restart() {
	t.sys.fabric.SetDown(t.leaf.Name, false)
	_ = t.leaf.HeartbeatOnce(context.Background(), "master")
	if t.sys.beatInterval > 0 {
		t.leaf.Start("master", t.sys.beatInterval)
	}
}

func (t *leafTarget) SetStall(d time.Duration) { t.leaf.SetStall(d) }

// newIndex builds one leaf's index per the config.
func (s *System) newIndex() exec.IndexSource {
	switch s.cfg.Index {
	case IndexNone:
		return nil
	case IndexBTree:
		return newBTreeIndex(s.model)
	default:
		si := core.New(core.Options{
			MemoryBudget:      s.cfg.IndexMemoryBytes,
			TTL:               s.cfg.IndexTTL,
			Compress:          s.cfg.IndexCompress,
			DisableDerivation: s.cfg.IndexNoDerivation,
			Model:             s.model,
		})
		s.smart = append(s.smart, si)
		return si
	}
}

// Heartbeat delivers one heartbeat from every worker; New calls it once,
// and long-running deployments call StartHeartbeats instead.
func (s *System) Heartbeat() error {
	ctx := context.Background()
	for _, l := range s.leaves {
		if err := l.HeartbeatOnce(ctx, "master"); err != nil {
			return err
		}
	}
	for _, st := range s.stems {
		if err := st.HeartbeatOnce(ctx, "master"); err != nil {
			return err
		}
	}
	return nil
}

// StartHeartbeats runs periodic heartbeats until Close, and sweeps expired
// SmartIndex entries on the same cadence (the TTL retirement of §IV-C2).
func (s *System) StartHeartbeats(interval time.Duration) {
	s.beatInterval = interval
	for _, l := range s.leaves {
		l.Start("master", interval)
	}
	for _, st := range s.stems {
		st.Start("master", interval)
	}
	if len(s.smart) > 0 && s.sweepStop == nil {
		s.sweepStop = make(chan struct{})
		go func(stop <-chan struct{}) {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					for _, si := range s.smart {
						si.Sweep()
					}
				}
			}
		}(s.sweepStop)
	}
}

// Close stops background loops.
func (s *System) Close() {
	if s.chaosCtl != nil {
		s.chaosCtl.Stop() // heals active faults so shutdown sees every node
	}
	for _, l := range s.leaves {
		l.Stop()
	}
	for _, st := range s.stems {
		st.Stop()
	}
	if s.sweepStop != nil {
		close(s.sweepStop)
		s.sweepStop = nil
	}
	if s.tcpNet != nil {
		s.tcpNet.Close()
	}
}

// Router exposes the common storage layer (for loading data and advanced
// setups).
func (s *System) Router() *storage.Router { return s.router }

// Authority returns the identity provider when auth is enabled, else nil.
func (s *System) Authority() *auth.Authority { return s.auth }

// Master exposes the master for advanced control (HA, scheduler tuning).
func (s *System) Master() *cluster.Master { return s.master }

// WireTransport returns the TCP fabric when the system runs on real sockets
// (Config.Transport "tcp"), else nil — for wire-level telemetry (listener
// address, per-class encoded byte counters).
func (s *System) WireTransport() *transport.TCP { return s.tcpNet }

// Metrics exposes the deployment's central registry: master query counters
// plus per-leaf task, SmartIndex and SSD-cache counters, under names like
// "master.queries", "leaf0.index.hits", "leaf0.cache.misses".
func (s *System) Metrics() *metrics.Registry { return s.metrics }

// RegisterTable installs or replaces a catalog entry (Loader.Close does this
// for generated data). Partition files the table listed before and no
// longer lists are retired: everything cached from them is released through
// InvalidatePath, so a sliding retention window holds memory flat. meta must
// be a new value: the catalog keeps the registered pointer, so editing that
// one in place hides what left.
func (s *System) RegisterTable(ctx context.Context, meta *plan.TableMeta) error {
	prev, lookupErr := s.master.Jobs.Lookup(meta.Name)
	if err := s.master.RegisterTable(ctx, meta); err != nil {
		return err
	}
	if lookupErr != nil {
		return nil // first registration: nothing to retire
	}
	kept := make(map[string]bool, len(meta.Partitions))
	for _, p := range meta.Partitions {
		kept[p.Path] = true
	}
	for _, p := range prev.Partitions {
		if !kept[p.Path] {
			s.InvalidatePath(meta.Name, p.Path)
		}
	}
	return nil
}

// Query runs one SQL statement.
func (s *System) Query(ctx context.Context, sql string, opts ...QueryOption) (*Result, error) {
	res, _, err := s.QueryStats(ctx, sql, opts...)
	return res, err
}

// QueryStats runs one SQL statement and also returns execution statistics.
func (s *System) QueryStats(ctx context.Context, sql string, opts ...QueryOption) (*Result, *QueryStats, error) {
	var o cluster.QueryOptions
	for _, opt := range opts {
		opt(&o)
	}
	if s.slowlog.Enabled() {
		// Trace every query so slow entries carry a per-stage breakdown;
		// the spans are cheap (in-process pointers, no serialization).
		o.Trace = true
	}
	res, stats, err := s.master.Submit(ctx, sql, o)
	if stats != nil {
		s.latWall.Observe(stats.WallTime.Seconds())
		s.latSim.Observe(stats.SimTime.Seconds())
		if stats.Trace != nil {
			s.traces.Add(trace.StoredTrace{
				QueryID:     stats.QueryID,
				Fingerprint: stats.Fingerprint,
				SQL:         sql,
				When:        time.Now(),
				Wall:        stats.WallTime,
				Sim:         stats.SimTime,
				Root:        stats.Trace,
			})
		}
		if s.slowlog.Slow(stats.WallTime, stats.SimTime) {
			s.slowlog.Record(telemetry.SlowQuery{
				When:         time.Now(),
				SQL:          sql,
				Fingerprint:  stats.Fingerprint,
				Wall:         stats.WallTime,
				Sim:          stats.SimTime,
				Tasks:        stats.Tasks,
				Reused:       stats.ReusedTasks,
				Backups:      stats.BackupTasks,
				Failed:       stats.TasksFailed,
				Stages:       telemetry.StagesFromTrace(stats.Trace),
				Counters:     telemetry.CountersFromTrace(stats.Trace),
				CriticalPath: trace.AnalyzeCriticalPath(stats.Trace).Summary(),
			})
		}
	}
	return res, stats, err
}

// ClusterHealth returns the master's aggregate fleet view: per-node
// alive/degraded/dead state with the load gauges carried by heartbeats,
// plus the admission-queue state when admission control is on.
// Render it with ClusterHealth().Render() (the \top dashboard).
func (s *System) ClusterHealth() cluster.ClusterHealth {
	return s.master.Health()
}

// Slowlog returns the slow-query ring buffer, or nil when no slow-query
// threshold is configured.
func (s *System) Slowlog() *telemetry.Slowlog { return s.slowlog }

// Events returns the cluster flight recorder (always on, the last
// events.DefaultCapacity events). Read the journal with Events().Events()
// (arrival order) or Events().Canonical() (deterministic (site, seq) order).
func (s *System) Events() *events.Recorder { return s.events }

// ActiveQueries snapshots the master's in-flight queries (oldest first):
// per-query task counts, merged rows and queue state. The live view behind
// the REPL's `\watch` and the exporter's /debug/queries.
func (s *System) ActiveQueries() []cluster.QueryProgress {
	return s.master.ActiveQueries()
}

// Traces returns the ring of retained finished query traces (the last
// trace.DefaultStoreSize). Only traced queries (EXPLAIN ANALYZE, WithTrace,
// or any query when the slowlog is enabled) are retained.
func (s *System) Traces() *trace.Store { return s.traces }

// Chaos returns the fault-injection plane, or nil when Config.Chaos was not
// set. Use it to read the fired-fault schedule (Events) and counters.
func (s *System) Chaos() *chaos.Plane { return s.chaosPlane }

// ChaosController returns the lifecycle chaos controller, or nil without
// chaos. Deterministic tests drive it via ChaosTick instead.
func (s *System) ChaosController() *chaos.Controller { return s.chaosCtl }

// ChaosTick advances lifecycle chaos one deterministic step (kill/restart/
// straggle/partition decisions). No-op without chaos.
func (s *System) ChaosTick() {
	if s.chaosCtl != nil {
		s.chaosCtl.Tick()
	}
}

// StartTelemetry starts the HTTP exporter on addr (host:port; port 0 picks
// an ephemeral port — read it back via Server.Addr). It serves /metrics in
// Prometheus text format, /healthz, /debug/slowlog, /debug/queries (live
// query progress), /debug/trace/{id} (Jaeger-compatible trace export),
// /debug/events (the flight recorder journal), and pprof when enablePprof
// is set. Callers own the returned server and should Close it.
func (s *System) StartTelemetry(addr string, enablePprof bool) (*telemetry.Server, error) {
	return telemetry.Start(addr, telemetry.Options{
		Registry:      s.metrics,
		Health:        s.master.Health,
		Slowlog:       s.slowlog,
		ActiveQueries: s.ActiveQueries,
		Traces:        s.traces,
		Events:        s.events,
		EnablePprof:   enablePprof,
	})
}

// IndexStats aggregates SmartIndex counters across leaves (zero stats when
// SmartIndex is not in use).
func (s *System) IndexStats() core.Stats {
	var total core.Stats
	for _, si := range s.smart {
		st := si.Stats()
		total.Hits += st.Hits
		total.DerivedHits += st.DerivedHits
		total.Misses += st.Misses
		total.Stored += st.Stored
		total.EvictedLRU += st.EvictedLRU
		total.EvictedTTL += st.EvictedTTL
		total.Bytes += st.Bytes
		total.Entries += st.Entries
	}
	return total
}

// ResetIndexCounters zeroes SmartIndex hit/miss counters (benchmark phases).
func (s *System) ResetIndexCounters() {
	for _, si := range s.smart {
		si.ResetCounters()
	}
}

// ResultCache exposes the master's semantic result cache, or nil when
// Config.ResultCacheBytes is 0. Use its Snapshot for hit/subsumption
// counters and the shadow-budget gauge.
func (s *System) ResultCache() *resultcache.Cache { return s.rescache }

// InvalidatePath drops every cached artifact derived from the partition
// file at path after a rewrite or retirement: the master's and every leaf's
// cached footers, each leaf's SSD column chunks and SmartIndex entries, and
// — when table is non-empty — the semantic result-cache entries reading
// that table. Loader, the ingest pipeline and RegisterTable call this
// themselves; callers rewriting partition files through Router() directly
// should too.
func (s *System) InvalidatePath(table, path string) {
	s.master.InvalidatePartition(table, path)
	for _, sr := range s.readers {
		sr.InvalidateMeta(path)
	}
	for _, c := range s.caches {
		c.InvalidatePath(path)
	}
	for _, si := range s.smart {
		si.Invalidate(path + "#") // block ids are path#ordinal
	}
}

// CacheMissRatio averages the SSD cache miss ratio across leaves; 0 when
// the cache is off or untouched.
func (s *System) CacheMissRatio() float64 {
	if len(s.caches) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range s.caches {
		sum += c.MissRatio()
	}
	return sum / float64(len(s.caches))
}

// QueryOption tunes one query.
type QueryOption func(*cluster.QueryOptions)

// WithToken authenticates the query (required when auth is enabled).
func WithToken(token string) QueryOption {
	return func(o *cluster.QueryOptions) { o.Token = token }
}

// WithTimeLimit bounds execution time; combine with WithMinProcessedRatio
// to accept partial results (paper §III-B).
func WithTimeLimit(d time.Duration) QueryOption {
	return func(o *cluster.QueryOptions) { o.TimeLimit = d }
}

// WithMinProcessedRatio accepts a result once this task fraction finishes.
func WithMinProcessedRatio(r float64) QueryOption {
	return func(o *cluster.QueryOptions) { o.MinProcessedRatio = r }
}

// WithTaskTimeout sets the per-task straggler threshold.
func WithTaskTimeout(d time.Duration) QueryOption {
	return func(o *cluster.QueryOptions) { o.TaskTimeout = d }
}

// WithoutResultCache bypasses the semantic result cache for this query —
// no lookup, no store. For ablations and freshness-sensitive reads.
func WithoutResultCache() QueryOption {
	return func(o *cluster.QueryOptions) { o.DisableResultCache = true }
}

// WithTrace records a span tree for the query — master, stem, leaf and scan
// stages with per-stage simulated/wall times and index/cache counters —
// into QueryStats.Trace. Equivalent to prefixing the SQL with
// "EXPLAIN ANALYZE", but the result set stays the query's own rows.
func WithTrace() QueryOption {
	return func(o *cluster.QueryOptions) { o.Trace = true }
}

// WithPartialResults degrades instead of failing: tasks that exhaust their
// retries are dropped from the result, reported per leaf in
// QueryStats.TaskErrors, and Result.ProcessedRatio reflects the loss. At
// least one task must still succeed.
func WithPartialResults() QueryOption {
	return func(o *cluster.QueryOptions) { o.PartialResults = true }
}

// WithHedging overrides the hedge delay for this query: a speculative
// duplicate of any task placed on a straggler-flagged leaf fires after d,
// first result wins. Negative d disables hedging for the query.
func WithHedging(d time.Duration) QueryOption {
	return func(o *cluster.QueryOptions) { o.HedgeDelay = d }
}

// WithPriority sets the query's admission class (interactive by default).
// Batch queries yield execution slots to interactive traffic under load.
func WithPriority(p Priority) QueryOption {
	return func(o *cluster.QueryOptions) { o.Priority = p }
}

// WithQueueDeadline bounds this query's admission-queue wait; past it the
// query is shed with an *OverloadedError (errors.Is(err, ErrOverloaded))
// carrying a retry-after hint. Overrides Config.QueueWaitDeadline.
func WithQueueDeadline(d time.Duration) QueryOption {
	return func(o *cluster.QueryOptions) { o.QueueDeadline = d }
}

// Explain plans the query without executing it and returns a human-readable
// description: the pushed-down filter in conjunctive form with its
// indexable atoms, the pruned column set, the broadcast or repartitioned
// joins, and the sub-plan dissection.
func (s *System) Explain(sql string) (string, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return "", err
	}
	p, err := plan.PlanWith(stmt, s.master.Jobs, s.plannerOpts)
	if err != nil {
		return "", err
	}
	return p.Describe(), nil
}
