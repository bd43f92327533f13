package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/auth"
	"repro/internal/colstore"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/resultcache"
	"repro/internal/sim"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/types"
)

// statement is one submission on its way through the master: what every
// stage of run reads and what each leaves behind for the next. It lives for
// one Submit call, on that call's goroutine.
type statement struct {
	m     *Master
	sql   string
	opts  QueryOptions
	start time.Time
	qid   string
	qsite string // the statement's flight-recorder site, "query/<qid>"
	qseq  uint64 // the events journaled on qsite
	stats *QueryStats

	cred auth.Credential // guard
	stmt *sqlparser.SelectStmt
	p    *plan.PhysicalPlan
	prog *progressHandle // admit
	root *trace.Span     // admit: nil unless the statement is traced
	bill *sim.Bill       // loadDims: what the master itself read

	// runTasks, while the recorder is on: each task's flight-recorder site
	// ("task/<qid>#<ordinal>") and the events journaled on it. A task's
	// entries are written by the goroutine that holds the task: its group's,
	// then the collector's.
	tsites []string
	tseq   []uint64

	// What close gives back, each set by the stage that took it.
	unguard func()             // guard: the entry guard's quota
	led     *flight            // flight: the flight this statement leads
	shared  *exec.Result       // publish: the result the flight's followers may copy
	slot    func()             // admit: the execution slot
	cancel  context.CancelFunc // admit: the time limit
}

// Submit plans, schedules, executes and finalizes one query.
func (m *Master) Submit(ctx context.Context, sql string, opts QueryOptions) (res *exec.Result, stats *QueryStats, err error) {
	m.Queries.Inc()
	if m.Standby() {
		m.QueryErrs.Inc()
		return nil, nil, ErrStandby
	}
	qid := fmt.Sprintf("q%06d", m.qidSeq.Add(1))
	q := &statement{m: m, sql: sql, opts: opts, start: time.Now(),
		qid: qid, qsite: "query/" + qid, stats: &QueryStats{QueryID: qid}}
	if m.cfg.Events.Enabled() {
		q.journal(events.QuerySubmit, 0, trimSQL(sql))
	}
	defer func() { q.close(res, err) }()
	if res, err = q.run(ctx); err != nil {
		return nil, nil, err
	}
	q.stats.WallTime = time.Since(q.start)
	return res, q.stats, nil
}

// run is the statement's lifecycle; the order is the code. Each stage lets
// the statement continue, answers it (a result), or fails it.
func (q *statement) run(ctx context.Context) (*exec.Result, error) {
	if err := q.guard(); err != nil {
		return nil, err
	}
	if err := q.plan(); err != nil {
		return nil, err
	}
	if err := q.authorize(); err != nil {
		return nil, err
	}
	if q.stmt.Explain && !q.stmt.Analyze { // describe the plan, execute nothing
		return textResult("plan", q.p.Describe()), nil
	}
	if res := q.probeCache(); res != nil {
		return res, nil
	}
	if res, err := q.flight(ctx); res != nil || err != nil {
		return res, err
	}
	ctx, err := q.admit(ctx)
	if err != nil {
		return nil, err
	}
	if err := q.loadDims(ctx); err != nil {
		return nil, err
	}
	merged, err := q.execute(ctx)
	if err != nil {
		return nil, err
	}
	res, err := q.finalize(merged)
	if err != nil {
		return nil, err
	}
	q.publish(res)
	return q.answer(res), nil
}

// close gives back what the stages took, latest first, and journals how the
// statement ended. It runs on every path out of Submit.
func (q *statement) close(res *exec.Result, err error) {
	m := q.m
	if q.cancel != nil {
		q.cancel()
	}
	if q.slot != nil {
		q.slot()
	}
	if q.prog != nil {
		m.progress.End(q.qid)
	}
	if q.led != nil {
		m.Jobs.land(q.led, q.shared, q.stats.Tasks)
	}
	if q.unguard != nil {
		q.unguard()
	}
	if err != nil {
		m.QueryErrs.Inc()
	}
	var over *OverloadedError
	switch {
	case err == nil: // every stage that answers hands back a result
		q.file()
		if m.cfg.Events.Enabled() {
			q.journal(events.QueryDone, q.stats.SimTime, "rows="+strconv.Itoa(len(res.Rows)))
		}
	case errors.As(err, &over):
		q.journal(events.QueryShed, 0, q.opts.Priority.String())
	default:
		q.journal(events.QueryError, 0, err.Error())
	}
}

// journal records one event on the statement's query site, which the
// statement numbers.
func (q *statement) journal(kind events.Kind, sim time.Duration, detail string) {
	if ev := q.m.cfg.Events; ev.Enabled() {
		q.qseq++
		ev.EmitSim(q.qsite, q.qseq, kind, q.qid, -1, sim, detail)
	}
}

// file observes an answered statement's latency and keeps its trace in the
// master's ring, marked slow when it reached a slow threshold.
func (q *statement) file() {
	m, stats := q.m, q.stats
	m.latWall.Observe(stats.WallTime.Seconds())
	m.latSim.Observe(stats.SimTime.Seconds())
	if stats.Trace == nil {
		return
	}
	wall, sim := m.cfg.SlowQueryWallThreshold, m.cfg.SlowQuerySimThreshold
	m.traces.Add(trace.StoredTrace{
		QueryID:     q.qid,
		Fingerprint: stats.Fingerprint,
		SQL:         q.sql,
		When:        time.Now(),
		Wall:        stats.WallTime,
		Sim:         stats.SimTime,
		Slow:        (wall > 0 && stats.WallTime >= wall) || (sim > 0 && stats.SimTime >= sim),
		Tasks:       stats.Tasks,
		Reused:      stats.ReusedTasks,
		Backups:     stats.BackupTasks,
		Failed:      stats.TasksFailed,
		Root:        stats.Trace,
	})
}

// answer is what the caller gets for an executed or served statement: the
// rows, or for EXPLAIN ANALYZE the plan with the trace that produced them.
func (q *statement) answer(res *exec.Result) *exec.Result {
	if q.stmt.Analyze {
		return textResult("EXPLAIN ANALYZE", q.p.DescribeAnalyze(q.stats.Trace))
	}
	return res
}

// guard is the entry guard (§III-C): refuse an oversized statement, then
// authenticate and charge the user's quota.
func (q *statement) guard() (err error) {
	if len(q.sql) > maxQueryBytes {
		return fmt.Errorf("%w: %d bytes exceeds the %d-byte limit", ErrQueryTooLarge, len(q.sql), maxQueryBytes)
	}
	if q.m.Guard != nil {
		q.cred, q.unguard, err = q.m.Guard.Admit(q.opts.Token)
	}
	return err
}

// plan parses and binds the statement. EXPLAIN ANALYZE executes traced, and
// so does every statement while a slow threshold is set: a slow entry is
// read from its trace.
func (q *statement) plan() (err error) {
	if q.stmt, q.p, err = q.m.bind(q.sql); err != nil {
		return err
	}
	q.stats.Fingerprint = q.p.Fingerprint
	cfg := &q.m.cfg
	q.opts.Trace = q.opts.Trace || q.stmt.Analyze || cfg.SlowQueryWallThreshold > 0 || cfg.SlowQuerySimThreshold > 0
	return nil
}

// authorize is the cross-domain check: the job credential must map into
// every storage domain the statement reads (§V-A).
func (q *statement) authorize() error {
	if q.m.Guard == nil {
		return nil
	}
	seen := make(map[string]bool)
	for _, bt := range q.p.A.Tables {
		for _, part := range bt.Meta.Partitions {
			store, _ := q.m.cfg.Router.Resolve(part.Path)
			scheme := store.Scheme()
			if seen[scheme] {
				continue
			}
			seen[scheme] = true
			if err := q.m.cfg.Authority.Authorize(q.cred, scheme); err != nil {
				return err
			}
		}
	}
	return nil
}

// probeCache is the semantic result cache: a complete cached result for this
// plan — exact literals, or a subsuming entry re-filtered with this
// statement's own predicate — answers it here. A hit executes nothing, so it
// takes no execution slot.
func (q *statement) probeCache() *exec.Result {
	cache := q.m.cfg.ResultCache
	if cache == nil || q.opts.DisableResultCache {
		return nil
	}
	res, outcome := cache.Lookup(q.p)
	q.stats.ResultCache = outcome.String()
	if outcome == resultcache.Miss {
		return nil
	}
	kind := events.CacheHit
	if outcome == resultcache.SubsumedHit {
		kind = events.CacheSubsumed
	}
	q.journal(kind, 0, q.p.Fingerprint)
	if q.opts.Trace {
		q.stats.Trace = servedTrace("master/result-cache", "status", outcome.String(), len(res.Rows))
	}
	return q.answer(res)
}

// flight is statement-level sharing: while an identical statement (same
// shape, same literals, same version of every table) is executing, wait for
// its result instead of executing — like a cache hit, a follower takes no
// execution slot. A statement that must trace its own execution or answer by
// a deadline executes itself, and so does one whose tables were re-registered
// while it was being planned. The first of its kind leads: it executes, and
// close lands the flight with whatever publish let it share.
func (q *statement) flight(ctx context.Context) (*exec.Result, error) {
	if q.stmt.Analyze || q.opts.TimeLimit != 0 {
		return nil, nil
	}
	m := q.m
	f, leader := m.Jobs.join(q.p, q.qid)
	if leader {
		q.led = f
	}
	if leader || f == nil {
		return nil, nil
	}
	select {
	case <-f.done:
	case <-ctx.Done():
		m.Jobs.collect(f, false)
		return nil, ctx.Err()
	}
	res := m.Jobs.collect(f, true)
	if res == nil {
		// The leader failed, degraded or was cancelled: execute the
		// statement here after all.
		return nil, nil
	}
	// Every task is accounted as reused.
	q.stats.Tasks, q.stats.ReusedTasks = f.tasks, f.tasks
	m.Jobs.Reused.Add(int64(f.tasks))
	q.journal(events.QueryFollowed, 0, f.leader)
	if q.opts.Trace {
		q.stats.Trace = servedTrace("master/flight", "leader", f.leader, len(res.Rows))
	}
	return res, nil
}

// admit is admission control: wait for an execution slot (weighted-fair
// between classes) or shed with a typed retry-after error. Everything before
// it is cheap planning work; the slot bounds actual execution. It returns
// the context execution runs under: the trace root when the statement is
// traced, cut off at the time limit when it has one.
func (q *statement) admit(ctx context.Context) (context.Context, error) {
	m, class := q.m, q.opts.Priority.String()
	q.stats.Priority = q.opts.Priority
	q.prog = m.progress.Begin(QueryProgress{
		ID: q.qid, SQL: q.sql, Fingerprint: q.p.Fingerprint, Priority: class, State: "queued",
	})
	slot, wait, err := m.Admission.Admit(ctx, q.opts.Priority, q.opts.QueueDeadline)
	if err != nil {
		return nil, err
	}
	q.slot = slot
	q.stats.QueueWait = wait
	if wait > 0 {
		q.journal(events.QueryQueued, 0, class)
	}
	q.journal(events.QueryAdmitted, 0, class)
	q.prog.update(func(p *QueryProgress) { p.State, p.QueueWait = "running", wait })
	if m.queueWait != nil {
		m.queueWait.Observe(wait.Seconds())
	}
	if q.opts.Trace {
		q.root = trace.New("master/query")
		q.stats.Trace = q.root
		ctx = trace.NewContext(ctx, q.root)
		if m.Admission != nil {
			span := q.root.Child("master/admission")
			span.SetAttr("class", class)
			span.SetAttr("wait", wait.String())
			span.SetWall(wait)
			span.Finish()
		}
		if q.stats.ResultCache != "" {
			span := q.root.Child("master/result-cache")
			span.SetAttr("status", q.stats.ResultCache)
			span.Finish()
		}
	}
	if m.cfg.Observer != nil {
		var keys []string
		for _, cl := range q.p.Filter.Clauses {
			for _, a := range cl.Atoms {
				keys = append(keys, a.Key())
			}
		}
		m.cfg.Observer.ObserveQuery(q.cred.User, keys)
	}
	if q.opts.TimeLimit > 0 {
		ctx, q.cancel = context.WithTimeout(ctx, q.opts.TimeLimit)
	}
	return ctx, nil
}

// loadDims materializes the broadcast dimension tables at the master, on the
// statement's own bill. A footer or extent read that fails is read again, as
// a leaf's task would be.
func (q *statement) loadDims(ctx context.Context) error {
	q.bill = sim.NewBill()
	ctx, span := trace.StartSpan(ctx, "master/load-dims")
	ctx = storage.WithBill(ctx, q.bill)
	reader := q.m.reader
	for _, d := range q.p.Dims {
		cols := d.Needed
		if len(cols) == 0 {
			d.Data = nil
			continue
		}
		var rows [][]types.Value
		for _, part := range d.Table.Meta.Partitions {
			var meta *colstore.FileMeta
			if err := q.reread(ctx, func() (err error) {
				meta, err = reader.Meta(ctx, part)
				return err
			}); err != nil {
				return fmt.Errorf("cluster: dimension %s: %w", d.Table.Meta.Name, err)
			}
			ords := make([]int, len(cols))
			for i, c := range cols {
				if ords[i] = meta.Schema.Index(c); ords[i] < 0 {
					return fmt.Errorf("cluster: dimension %s lacks column %q", d.Table.Meta.Name, c)
				}
			}
			for bi := range meta.Blocks {
				colData := make([]*colstore.Column, len(cols))
				for i, ord := range ords {
					if err := q.reread(ctx, func() (err error) {
						colData[i], err = reader.Column(ctx, part.Path, meta, bi, ord)
						return err
					}); err != nil {
						return err
					}
				}
				for r := 0; r < meta.Blocks[bi].Stats.NumRows; r++ {
					row := make([]types.Value, len(cols))
					for i, c := range colData {
						row[i] = recordValue(c, r)
					}
					rows = append(rows, row)
				}
			}
		}
		d.Data = rows
	}
	span.SetSim(q.bill.Time())
	span.Finish()
	return nil
}

// reread runs read, and runs it again while it fails and ctx is live, up to
// MaxTaskRetries times: the budget a leaf task has for any failure, a corrupt
// footer tail or extent included.
func (q *statement) reread(ctx context.Context, read func() error) error {
	err := read()
	for i := 0; i < q.m.cfg.MaxTaskRetries && err != nil && ctx.Err() == nil; i++ {
		err = read()
	}
	return err
}

// recordValue reads record r of a column chunk; a repeated column surfaces
// its first element.
func recordValue(c *colstore.Column, r int) types.Value {
	if c.Offsets == nil {
		return c.Value(r)
	}
	start, end := c.Offsets[r], c.Offsets[r+1]
	if start == end {
		return types.NullValue()
	}
	return c.Value(int(start))
}

// execute runs the statement's tasks: scattered over the tree and folded on
// the way up, or — repartitioned — as map tasks on the leaves, one message
// from each to every reducer and one reduce per reducer.
func (q *statement) execute(ctx context.Context) (merged *exec.TaskResult, err error) {
	ctx, span := trace.StartSpan(ctx, "master/execute")
	if q.p.Shuffle != nil {
		merged, err = q.shuffle(ctx)
	} else {
		merged, err = q.scatter(ctx)
	}
	span.SetSim(q.stats.SimTime)
	span.Finish()
	return merged, err
}

// finalize turns the merged task results into the statement's rows and
// closes its accounts: scan statistics, processed ratio, the master's own
// reads, the trace root's totals.
func (q *statement) finalize(merged *exec.TaskResult) (*exec.Result, error) {
	span := q.root.Child("master/finalize")
	res, err := exec.Finalize(q.p, merged)
	span.Finish()
	if err != nil {
		return nil, err
	}
	stats := q.stats
	if merged != nil {
		stats.Scan = merged.Stats
	}
	res.ProcessedRatio = 1
	if stats.Tasks > 0 {
		res.ProcessedRatio = float64(stats.Tasks-stats.TasksFailed) / float64(stats.Tasks)
	}
	res.Partial = stats.TasksFailed > 0
	stats.SimTime += q.bill.Time()
	if model := q.m.cfg.Model; model != nil {
		stats.SimTime += 2 * model.RPCLatency
	}
	q.bill.DeviceBytes().AddTo(stats.BytesByDevice)
	if root := q.root; root != nil {
		count := func(name string, n int) {
			if n > 0 {
				root.Count(name, int64(n))
			}
		}
		root.SetSim(stats.SimTime)
		root.Count("tasks", int64(stats.Tasks))
		count("tasks.backup", stats.BackupTasks)
		count("tasks.dropped", len(stats.TaskErrors))
		root.Finish()
	}
	return res, nil
}

// publish shares and stores only complete results: no failed tasks, no
// partial/ratio degradation — neither a follower nor the cache may replay a
// truncated answer. The entry records the versions the plan was bound at, so
// a result stored after its tables were re-registered is never served.
func (q *statement) publish(res *exec.Result) {
	if q.stats.TasksFailed > 0 || res.Partial || res.ProcessedRatio < 1 {
		return
	}
	q.shared = res
	if !q.opts.DisableResultCache {
		q.m.cfg.ResultCache.Store(q.p, q.cred.User, res)
	}
}
