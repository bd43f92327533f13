package main

// harness.go boots the system, loads the seeded table, warms up, and drives
// one workload as a closed loop of fixed-size rounds.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	feisu "repro"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/resultcache"
	"repro/internal/types"
)

// workload is one named workload: a deployment, a statement list and the
// frozen amount of work in a round.
type workload struct {
	name string
	why  string
	// clients is the closed-loop client count, capped by the CPU count.
	clients int
	// opsPerRound is the statement count of one measured round, calibrated
	// once on the 2-vCPU reference box so that measuredRounds rounds take
	// about refSeconds, then frozen. It is a whole number of passes over the
	// statement list, so every round does the same work and the median of
	// rounds is a median of repeats. -seconds scales it linearly.
	opsPerRound int
	// warmOps is the length of the untimed warm-up pass.
	warmOps int
	// traceOps is how many statements the tracing-overhead comparison runs
	// on each side.
	traceOps int
	// traceStmts is how many distinct statements the staged replay walks:
	// 256 where a statement takes a millisecond, fewer where it takes fifty.
	traceStmts int
	config     func() feisu.Config
	stmts      func(seed uint64) []stmt
	users      bool // also load the users table
	ingest     bool // dash_ingest's ingest-then-panel cycle
}

const (
	measuredRounds = 6
	// refSeconds is the measured time opsPerRound was calibrated for; it is
	// BENCHMARK.json's run_seconds. The issue asked for 30–40 s and a floor
	// of 20 s; the contract's cap of 3 420 s for 92 runs of three set-ups
	// each, on a box that slows down by a quarter for minutes at a time,
	// leaves 16 s. All four round sizes carry that one common factor.
	refSeconds = 16
	// setupRepeats is how many times an untraced run sets up; setup_s is the
	// median, because one set-up of ~2 s is too short to repeat within 10 %.
	setupRepeats = 3
)

// baseConfig is the deployment every workload shares. Heartbeats are driven
// by the harness between rounds, so that no time-triggered background work
// (heartbeat fan-in, SmartIndex TTL sweep) lands inside a measured round.
func baseConfig() feisu.Config {
	return feisu.Config{Leaves: 4, Stems: 2, HeartbeatInterval: -1}
}

var workloads = []*workload{
	{
		name:    "scan_hot",
		why:     "Zipf session stream over 64 atoms, index and column cache fit: per-query fixed cost (parse, plan, dispatch, index lookup, bitmap ops) dominates",
		clients: 2, opsPerRound: 3200, warmOps: 512, traceOps: 1500, traceStmts: 256,
		config: func() feisu.Config {
			c := baseConfig()
			c.IndexMemoryBytes = 64 << 20
			c.CacheBytes = 64 << 20
			c.CachePrefixes = []string{"/hdfs/"}
			return c
		},
		stmts: func(seed uint64) []stmt { return scanHotStmts(seed, 3200) },
	},
	{
		name:    "scan_cold",
		why:     "same statement shapes with fresh literals, index and column cache a fraction of the data: extent read, CRC, decode, predicate kernels, index store and eviction dominate",
		clients: 2, opsPerRound: 512, warmOps: 128, traceOps: 200, traceStmts: 128,
		config: func() feisu.Config {
			c := baseConfig()
			c.IndexMemoryBytes = 256 << 10
			c.CacheBytes = 1 << 20
			c.CachePrefixes = []string{"/hdfs/"}
			return c
		},
		stmts: func(seed uint64) []stmt { return scanColdStmts(seed, 512) },
	},
	{
		name:    "shuffle_tcp",
		why:     "high-cardinality GROUP BY and repartition join over real loopback sockets: row-of-Value aggregation, shuffle frames, gob envelope, stem and master merge dominate",
		clients: 2, opsPerRound: 78, warmOps: 24, traceOps: 30, traceStmts: 24,
		config: func() feisu.Config {
			c := baseConfig()
			c.Transport = "tcp"
			// The planner's thresholds are scaled with the 1 : 10^5 data so
			// that the repartition paths are the ones that run.
			c.GroupShuffleRows = 100_000
			c.BroadcastThreshold = 64 << 10 // users is 107 KiB stored
			c.ShufflePartitions = 4
			return c
		},
		stmts: func(seed uint64) []stmt { return shuffleStmts(seed, 78) },
		users: true,
	},
	{
		name:    "dash_ingest",
		why:     "JSON ingest interleaved with a dashboard panel at exactly 75 % result-cache hits: the write path, invalidation and the result cache are on the hot path",
		clients: 1, opsPerRound: 32 * 52, warmOps: 32, traceOps: 1024, traceStmts: 256,
		config: func() feisu.Config {
			c := baseConfig()
			c.ResultCacheBytes = 32 << 20
			return c
		},
		stmts:  func(uint64) []stmt { return dashStmts() },
		ingest: true,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want scan_hot, scan_cold, shuffle_tcp or dash_ingest)", name)
}

func (w *workload) clientCount() int {
	if n := runtime.NumCPU(); n < w.clients {
		return n
	}
	return w.clients
}

// opsFor scales the frozen round size to the requested measuring time. A
// dash_ingest round is a whole number of 32-statement cycles.
func (w *workload) opsFor(seconds int) int {
	unit := 1
	if w.ingest {
		unit = len(dashStmts())
	}
	n := (w.opsPerRound*seconds/refSeconds + unit/2) / unit * unit
	if n < unit {
		n = unit
	}
	return n
}

// obs is what a client keeps of one executed statement. Clients only append
// to pre-allocated slices inside a round; checking happens between rounds.
type obs struct {
	stmt  int32 // index into env.stmts
	epoch int32 // batches ingested so far: which rows were live
	class int8  // latency class: shuffle A/B, dash miss/hit
	ok    bool  // executed, and the rows passed validation
	ans   answer
}

// counters sums QueryStats over the statements one client ran.
type counters struct {
	tasks, failedTasks, backupTasks, hedgedTasks int64
	spillBytes                                   int64
	scan                                         exec.ScanStats
}

func (c *counters) add(o counters) {
	c.tasks += o.tasks
	c.failedTasks += o.failedTasks
	c.backupTasks += o.backupTasks
	c.hedgedTasks += o.hedgedTasks
	c.spillBytes += o.spillBytes
	c.scan.Add(o.scan)
}

type client struct {
	lat []time.Duration
	obs []obs
	sum counters
}

// env is one set-up system with everything the harness knows about it.
type env struct {
	w      *workload
	seed   uint64
	ctx    context.Context
	sys    *feisu.System
	schema *types.Schema
	rows   *rowGen
	chk    *checker
	stmts  []stmt
	sents  []stmt

	// cursor is the next position in the cycled statement list.
	cursor int
	// ref holds, per distinct statement, the answer of its first execution.
	ref     []answer
	refSeen []bool
	// ingested partitions, oldest first, for the retention window.
	ingestPaths []string
	// baseAccum caches, per distinct statement, the checker's evaluation of
	// the base partitions (dash_ingest).
	baseAccum map[int]*accum

	writtenBytes, writtenRows int64
	attempted, failed         int
	ingests                   int
	ingestWall                time.Duration

	goroutinesBefore int
	newDur, loadDur  time.Duration
}

func (e *env) fail(format string, args ...any) {
	e.failed++
	if e.failed <= 10 { // enough to diagnose, no flood
		fmt.Printf("FAIL "+format+"\n", args...)
	}
}

// setup boots the system, generates and loads the tables, generates the
// statement list and runs the untimed warm-up pass.
func setup(w *workload, seed uint64) (*env, error) {
	e := &env{w: w, seed: seed, ctx: context.Background(), goroutinesBefore: runtime.NumGoroutine(),
		schema: logSchema(), rows: newRowGen(seed), chk: &checker{}}
	t := time.Now()
	sys, err := feisu.New(w.config())
	if err != nil {
		return nil, err
	}
	e.sys = sys
	e.newDur = time.Since(t)

	// Every workload loads the full logs table, so that none has a
	// sub-second set-up whose relative noise would swamp its bound.
	t = time.Now()
	ld, err := sys.NewLoader("logs", e.schema, "/hdfs/logs")
	if err != nil {
		return nil, err
	}
	ld.SetPartitionRows(partRows)
	ld.SetBlockRows(blockRows)
	row := make(types.Row, e.schema.Len())
	for p := 0; p < logPartitions; p++ {
		seg := &segment{}
		for r := 0; r < partRows; r++ {
			e.rows.row(seg, row)
			if err := ld.Append(row); err != nil {
				return nil, err
			}
		}
		e.chk.base = append(e.chk.base, seg)
	}
	if err := ld.Close(); err != nil {
		return nil, err
	}
	e.loadDur = time.Since(t)
	e.noteWritten(ld.Meta().Partitions)

	if w.users {
		ul, err := sys.NewLoader("users", userSchema(), "/hdfs/users")
		if err != nil {
			return nil, err
		}
		if e.chk.users, err = genUsers(seed, ul.Append); err != nil {
			return nil, err
		}
		if err := ul.Close(); err != nil {
			return nil, err
		}
		e.noteWritten(ul.Meta().Partitions)
	}

	e.stmts = w.stmts(seed)
	e.sents = sentinels(w.users)
	distinct := 0
	for _, st := range e.stmts {
		if st.id >= distinct {
			distinct = st.id + 1
		}
	}
	e.ref = make([]answer, distinct)
	e.refSeen = make([]bool, distinct)

	e.checkSentinels()
	if w.ingest {
		// Fill the retention window, so that the table has its steady
		// size from the first measured cycle on.
		batches := e.pregenerate(liveIngested)
		for _, b := range batches {
			e.ingestOne(b)
		}
	}
	// The warm-up runs with the measured client count: on tcp that also
	// dials every connection pool to its working size before the clock.
	e.runRound(w.warmOps)
	return e, nil
}

func (e *env) noteWritten(parts []plan.PartitionMeta) {
	for _, p := range parts {
		e.writtenBytes += p.Bytes
		e.writtenRows += p.Rows
	}
}

func (e *env) close() { e.sys.Close() }

// checkSentinels runs the twelve statements whose answers the checker
// computes itself over the rows that are live now.
func (e *env) checkSentinels() {
	live := e.chk.live(len(e.chk.ingested))
	for i := range e.sents {
		st := &e.sents[i]
		e.attempted++
		res, err := e.sys.Query(e.ctx, st.sql)
		if err != nil {
			e.fail("sentinel %q: %v", st.sql, err)
			continue
		}
		got, ok := e.chk.observe(st, res)
		if want := e.chk.expect(st, live); !ok || got != want {
			e.fail("sentinel %q: got %+v (rows valid: %v), want %+v", st.sql, got, ok, want)
		}
	}
}

// batch is one pre-generated ingest batch.
type batch struct {
	src  string
	json []byte
	seg  *segment
}

// pregenerate builds the next n ingest batches before the clock starts.
func (e *env) pregenerate(n int) []batch {
	out := make([]batch, n)
	for i := range out {
		out[i].src = fmt.Sprintf("/ingest/logs/batch-%06d.json", len(e.chk.ingested)+i)
		out[i].json, out[i].seg = e.rows.batch(e.schema, batchRows)
	}
	return out
}

// ingestOne is step (1) of a dash_ingest cycle: drop the batch under the
// watched prefix, convert it, and retire the oldest ingested partition once
// more than liveIngested are in the catalog.
func (e *env) ingestOne(b batch) {
	t := time.Now()
	e.attempted++
	e.ingests++
	err := e.sys.Router().WriteFile(e.ctx, b.src, b.json)
	var rows int64
	if err == nil {
		rows, err = e.sys.IngestOnce(e.ctx, "logs", e.schema, "/ingest/logs/", "/hdfs/logs-live")
	}
	var meta *plan.TableMeta
	if err == nil {
		meta, err = e.sys.Master().Jobs.Lookup("logs")
	}
	if err != nil || rows != int64(b.seg.n) {
		e.fail("ingest %s: %d rows, %v", b.src, rows, err)
		e.ingestWall += time.Since(t)
		return
	}
	e.chk.ingested = append(e.chk.ingested, b.seg)
	last := meta.Partitions[len(meta.Partitions)-1]
	e.noteWritten([]plan.PartitionMeta{last})
	e.ingestPaths = append(e.ingestPaths, last.Path)
	// The converter has consumed the source file; truncating it keeps the
	// store, and so live_heap_mb, from growing with the run's length. A
	// failed truncation only costs memory, so its error is dropped.
	_ = e.sys.Router().WriteFile(e.ctx, b.src, nil)
	if len(e.ingestPaths) > liveIngested {
		retired := e.ingestPaths[0]
		e.ingestPaths = e.ingestPaths[1:]
		kept := &plan.TableMeta{Name: meta.Name, Schema: meta.Schema}
		for _, p := range meta.Partitions {
			if p.Path != retired {
				kept.Partitions = append(kept.Partitions, p)
			}
		}
		if err := e.sys.RegisterTable(e.ctx, kept); err != nil {
			e.fail("retire %s: %v", retired, err)
		}
		_ = e.sys.Router().WriteFile(e.ctx, retired, nil)
	}
	e.ingestWall += time.Since(t)
}

// run executes statement idx once for client c.
func (e *env) run(c *client, idx int) {
	st := &e.stmts[idx]
	t := time.Now()
	res, qs, err := e.sys.QueryStats(e.ctx, st.sql)
	c.lat = append(c.lat, time.Since(t))
	o := obs{stmt: int32(idx), epoch: int32(len(e.chk.ingested)), class: int8(st.class)}
	if err == nil {
		o.ans, o.ok = e.chk.observe(st, res)
		c.sum.tasks += int64(qs.Tasks)
		c.sum.failedTasks += int64(qs.TasksFailed)
		c.sum.backupTasks += int64(qs.BackupTasks)
		c.sum.hedgedTasks += int64(qs.HedgedTasks)
		c.sum.spillBytes += qs.ShuffleSpillBytes
		c.sum.scan.Add(qs.Scan)
		switch qs.ResultCache {
		case "hit", "subsumed":
			o.class = 1
		case "miss":
			o.class = 0
		}
	}
	c.obs = append(c.obs, o)
}

// roundResult is what one round measured, all of it taken right around the
// round's clock: batch generation, the forced collection and answer checking
// are outside.
type roundResult struct {
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcPauseNs  uint64
	clients    []*client
}

// runRound executes ops statements as a closed loop with no think time and
// then checks their answers (outside the round's clock).
func (e *env) runRound(ops int) roundResult {
	n := e.w.clientCount()
	clients := make([]*client, n)
	for i := range clients {
		// Pre-allocated for the worst case of one client doing all the
		// work, so that no append inside the round grows a slice.
		clients[i] = &client{lat: make([]time.Duration, 0, ops), obs: make([]obs, 0, ops)}
	}
	var batches []batch
	if e.w.ingest {
		batches = e.pregenerate(ops / len(e.stmts))
	}
	// A collection now, not at a moment the previous round's garbage picks.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()

	start := time.Now()
	if e.w.ingest {
		// One client: ingest and panel alternate deterministically on this
		// goroutine, they do not race.
		for _, b := range batches {
			e.ingestOne(b)
			for i := range e.stmts {
				e.run(clients[0], i)
			}
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= ops {
						return
					}
					e.run(c, (e.cursor+i)%len(e.stmts))
				}
			}(c)
		}
		wg.Wait()
		e.cursor = (e.cursor + ops) % len(e.stmts)
	}
	rr := roundResult{wall: time.Since(start), clients: clients}
	rr.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	rr.mallocs = m1.Mallocs - m0.Mallocs
	rr.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	rr.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs

	for _, c := range clients {
		e.verify(c.obs)
	}
	// Batches that have left the retention window are checked now; letting
	// go of the checker's copy keeps the harness's own heap, which the
	// collector scans too, from growing with the number of ingests.
	for i := 0; i < len(e.chk.ingested)-liveIngested; i++ {
		e.chk.ingested[i] = nil
	}
	return rr
}

// verify checks the answers a client collected. Over an unchanged table
// every execution of a statement must give the answer its first execution
// gave; dash_ingest's table changes with every cycle, so there each answer
// is compared with what the checker computes for the rows live at the time.
// That covers the freshness invariant: the panel's first statement is
// COUNT(*) over the retention window, and a stale result-cache or index
// entry makes it disagree with the rows the harness knows are live.
func (e *env) verify(list []obs) {
	type key struct{ epoch, id int }
	expected := map[key]answer{}
	for _, o := range list {
		st := &e.stmts[o.stmt]
		e.attempted++
		if !o.ok {
			e.fail("%q: error or invalid rows", st.sql)
			continue
		}
		var want answer
		switch {
		case e.w.ingest:
			k := key{int(o.epoch), st.id}
			w, ok := expected[k]
			if !ok {
				w = e.expectAt(st, k.epoch)
				expected[k] = w
			}
			want = w
		case st.kind == kProject:
			// Any matching rows are right; observe validated them, and
			// the count is pinned by the sentinels.
			continue
		case !e.refSeen[st.id]:
			e.refSeen[st.id], e.ref[st.id] = true, o.ans
			continue
		default:
			want = e.ref[st.id]
		}
		if o.ans != want {
			e.fail("%q: got %+v, want %+v", st.sql, o.ans, want)
		}
	}
}

// expectAt is the checker's answer for the rows live after n ingests. The
// base partitions never change, so their part is evaluated once per
// statement and only the live ingested batches are evaluated per cycle.
func (e *env) expectAt(st *stmt, n int) answer {
	if e.baseAccum == nil {
		e.baseAccum = map[int]*accum{}
	}
	base := e.baseAccum[st.id]
	if base == nil {
		base = e.chk.newAccum(st)
		for _, s := range e.chk.base {
			base.add(s)
		}
		e.baseAccum[st.id] = base
	}
	a := base.clone()
	for _, s := range e.chk.ingested[max(0, n-liveIngested):n] {
		a.add(s)
	}
	return a.answer()
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sysCounters is a snapshot of the program's own public counters; the
// measured rounds are bracketed by two of them.
type sysCounters struct {
	index       core.Stats
	rescache    resultcache.Stats
	cacheHits   int64
	cacheMisses int64
	wireBytes   int64
	dropped     uint64
}

func (e *env) counters() sysCounters {
	c := sysCounters{index: e.sys.IndexStats(), rescache: e.sys.ResultCache().Snapshot(), dropped: e.sys.Events().Dropped()}
	for name, v := range e.sys.Metrics().Snapshot() {
		switch {
		case strings.HasSuffix(name, ".cache.hits"):
			c.cacheHits += v
		case strings.HasSuffix(name, ".cache.misses"):
			c.cacheMisses += v
		}
	}
	if tcp := e.sys.WireTransport(); tcp != nil {
		for i := range tcp.WireBytes {
			c.wireBytes += tcp.WireBytes[i].Value()
		}
	}
	return c
}

// measurement is the outcome of the measured rounds of one run.
type measurement struct {
	roundQPS   []float64
	roundCPU   []float64 // CPU ms per statement, round by round
	roundP50   []float64 // per-round latency percentiles, ms
	roundP95   []float64
	lat        []time.Duration // all rounds pooled
	classLat   [2][]time.Duration
	statements int
	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
	gcPauseNs  uint64
	liveHeap   uint64
	ingests    int
	ingestWall time.Duration
	sum        counters
	// before and after bracket the measured rounds.
	before, after sysCounters
}

// measure runs the measured rounds.
func (e *env) measure(seconds int) *measurement {
	ops := e.w.opsFor(seconds)
	m := &measurement{before: e.counters()}
	ingests0, ingestWall0 := e.ingests, e.ingestWall
	for r := 0; r < measuredRounds; r++ {
		// Manual heartbeat: keeps every worker inside the master's
		// liveness window without a timer firing inside the round.
		if err := e.sys.Heartbeat(); err != nil {
			e.fail("heartbeat: %v", err)
		}
		rr := e.runRound(ops)
		m.mallocs += rr.mallocs
		m.allocBytes += rr.allocBytes
		m.gcPauseNs += rr.gcPauseNs
		m.wall += rr.wall
		m.statements += ops
		m.roundQPS = append(m.roundQPS, float64(ops)/rr.wall.Seconds())
		m.roundCPU = append(m.roundCPU, ms(rr.cpu)/float64(ops))
		var roundLat []time.Duration
		for _, c := range rr.clients {
			roundLat = append(roundLat, c.lat...)
		}
		sortDurations(roundLat)
		m.roundP50 = append(m.roundP50, ms(percentile(roundLat, 50)))
		m.roundP95 = append(m.roundP95, ms(percentile(roundLat, 95)))
		for _, c := range rr.clients {
			m.lat = append(m.lat, c.lat...)
			for i, o := range c.obs {
				if o.class == 0 || o.class == 1 {
					m.classLat[o.class] = append(m.classLat[o.class], c.lat[i])
				}
			}
			m.sum.add(c.sum)
		}
	}
	m.ingests, m.ingestWall = e.ingests-ingests0, e.ingestWall-ingestWall0
	m.after = e.counters()
	e.checkSentinels()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.liveHeap = ms.HeapAlloc
	return m
}
