package main

// trace.go is the traced run's staged replay. It takes statements of the
// workload and, single-threaded, walks each through the layers by calling
// their public functions one after another, the way the master, a leaf and a
// stem would, with a span around every call. The spans live in memory and
// are written out when the run ends. No span is recorded inside the program:
// everything here is the benchmark's own code around the program's calls.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/resultcache"
	"repro/internal/sim"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// span is one recorded call: the layer boundary it crossed, when, and the
// span that caused it. Spans of one statement share Stmt.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a statement's root span
	Stmt   int    `json:"stmt"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory. A nil recorder records nothing, which is
// how the replay's own warm-up pass runs.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) begin(name string, parent, stmt int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Stmt: stmt, Name: name,
		Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r != nil {
		r.spans[id].End = int64(time.Since(r.t0))
	}
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	children := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range r.spans {
		out[s.Name] += time.Duration(s.End - s.Start - children[s.ID])
	}
	return out
}

func (r *recorder) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// wirePayload is the benchmark's own payload type for the wire codec: the
// cluster's reply types are unexported, so the replay wraps the same
// *exec.TaskResult they carry.
type wirePayload struct {
	Result *exec.TaskResult
	Blob   []byte
}

func init() { transport.RegisterPayload(wirePayload{}) }

// replayLeaves is the leaf count of baseConfig.
const replayLeaves = 4

// replay owns one set of leaf-side state (reader, column cache, SmartIndex
// per leaf) and a result cache, configured as the workload configures the
// system's, but private: replaying does not disturb the system under test.
type replay struct {
	e        *env
	rec      *recorder
	model    *sim.CostModel
	opts     plan.Options
	readers  []exec.PartitionReader
	indexes  []exec.IndexSource
	rescache *resultcache.Cache
	wire     bool // encode and decode every task result, as tcp does
}

func newReplay(e *env) *replay {
	cfg := e.w.config()
	rp := &replay{e: e, model: sim.DefaultCostModel(), wire: cfg.Transport == "tcp",
		opts: plan.Options{
			BroadcastThreshold: cfg.BroadcastThreshold,
			ShufflePartitions:  cfg.ShufflePartitions,
			GroupShuffleRows:   cfg.GroupShuffleRows,
			MemoryGrantBytes:   cfg.ShuffleMemoryBytes,
		}}
	for i := 0; i < replayLeaves; i++ {
		var rd exec.PartitionReader = exec.NewStoreReader(e.sys.Router())
		if cfg.CacheBytes > 0 {
			rd = cache.NewReader(rd, cache.Options{CapacityBytes: cfg.CacheBytes, Prefixes: cfg.CachePrefixes, Model: rp.model})
		}
		rp.readers = append(rp.readers, rd)
		rp.indexes = append(rp.indexes, core.New(core.Options{MemoryBudget: cfg.IndexMemoryBytes, Model: rp.model}))
	}
	if cfg.ResultCacheBytes > 0 {
		rp.rescache = resultcache.New(resultcache.Config{CapacityBytes: cfg.ResultCacheBytes, TTL: 5 * time.Minute})
	}
	return rp
}

// task runs one leaf sub-plan on the leaf its partition maps to.
func (rp *replay) task(parent, sid int, t plan.TaskSpec) (*exec.TaskResult, error) {
	leaf := t.Ordinal % replayLeaves
	id := rp.rec.begin("exec.task", parent, sid)
	ctx := storage.WithBill(context.Background(), sim.NewBill())
	res, err := exec.RunTaskModel(ctx, t, rp.readers[leaf], rp.indexes[leaf], rp.model)
	rp.rec.end(id)
	return res, err
}

// overWire encodes and decodes a task result when the workload runs on tcp.
func (rp *replay) overWire(parent, sid int, res *exec.TaskResult) (*exec.TaskResult, error) {
	if !rp.wire {
		return res, nil
	}
	id := rp.rec.begin("transport.encode", parent, sid)
	body, err := transport.EncodePayload(wirePayload{Result: res})
	rp.rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rp.rec.begin("transport.decode", parent, sid)
	back, err := transport.DecodePayload(body)
	rp.rec.end(id)
	if err != nil {
		return nil, err
	}
	return back.(wirePayload).Result, nil
}

func (rp *replay) merge(parent, sid int, p *plan.PhysicalPlan, acc, next *exec.TaskResult) *exec.TaskResult {
	id := rp.rec.begin("exec.merge", parent, sid)
	acc = exec.MergeResults(p, acc, next)
	rp.rec.end(id)
	return acc
}

// statement replays one statement stage by stage: parse, plan, result-cache
// lookup, every leaf task, the wire codec, merge, finalize, result-cache
// store. It returns the final result, so that the caller can check that the
// replay computes what the system computes.
func (rp *replay) statement(sid int, sql string) (*exec.Result, error) {
	root := rp.rec.begin("statement", -1, sid)
	defer rp.rec.end(root)

	id := rp.rec.begin("sqlparser.parse", root, sid)
	stmt, err := sqlparser.Parse(sql)
	rp.rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rp.rec.begin("plan.plan", root, sid)
	p, err := plan.PlanWith(stmt, rp.e.sys.Master().Jobs, rp.opts)
	rp.rec.end(id)
	if err != nil {
		return nil, err
	}
	if len(p.Dims) > 0 {
		return nil, fmt.Errorf("replay: %q has a broadcast dimension, which no workload generates", sql)
	}
	if rp.rescache != nil {
		id = rp.rec.begin("resultcache.lookup", root, sid)
		res, outcome := rp.rescache.Lookup(p)
		rp.rec.end(id)
		if outcome != resultcache.Miss {
			return res, nil
		}
	}

	var merged *exec.TaskResult
	if p.Shuffle != nil {
		merged, err = rp.shuffle(root, sid, p)
		if err != nil {
			return nil, err
		}
	} else {
		for _, t := range p.Tasks() {
			res, err := rp.task(root, sid, t)
			if err == nil {
				res, err = rp.overWire(root, sid, res)
			}
			if err != nil {
				return nil, err
			}
			merged = rp.merge(root, sid, p, merged, res)
		}
	}

	id = rp.rec.begin("exec.finalize", root, sid)
	res, err := exec.Finalize(p, merged)
	rp.rec.end(id)
	if err != nil {
		return nil, err
	}
	if rp.rescache != nil {
		id = rp.rec.begin("resultcache.store", root, sid)
		rp.rescache.Store(p, "", res)
		rp.rec.end(id)
	}
	return res, nil
}

// shuffle replays a repartitioned plan the way leaves and stems run it: map
// tasks, hash routing of their output, one frame per partition over the
// wire, a reducer operator per partition, and the merge of the reducers'
// results.
func (rp *replay) shuffle(root, sid int, p *plan.PhysicalPlan) (*exec.TaskResult, error) {
	sh := p.Shuffle
	parts := sh.Partitions
	if parts <= 0 {
		parts = 1
	}
	type side struct {
		plan  *plan.PhysicalPlan
		build bool
	}
	sides := []side{{plan: p}}
	if !sh.GroupShuffle {
		sides = []side{{plan: sh.BuildPlan, build: true}, {plan: sh.ProbePlan}}
	}
	groups := make([][]*exec.Groups, parts)
	buildRows := make([][][]types.Value, parts)
	probeRows := make([][][]types.Value, parts)
	ordinal := 0
	for _, sd := range sides {
		for _, t := range sd.plan.Tasks() {
			t.Ordinal = ordinal
			ordinal++
			res, err := rp.task(root, sid, t)
			if err != nil {
				return nil, err
			}
			id := rp.rec.begin("exec.route", root, sid)
			frames := make([]*exec.TaskResult, parts)
			if sh.GroupShuffle {
				for k, g := range res.Groups.M {
					pi := exec.GroupShufflePartition(g.Keys, parts)
					if frames[pi] == nil {
						frames[pi] = &exec.TaskResult{Groups: exec.NewGroups(res.Groups.NumAggs)}
					}
					frames[pi].Groups.M[k] = g
				}
			} else {
				for _, row := range res.Rows {
					pi := exec.ShufflePartition(row, sh.Keys, parts)
					if frames[pi] == nil {
						frames[pi] = &exec.TaskResult{}
					}
					frames[pi].Rows = append(frames[pi].Rows, row)
				}
			}
			rp.rec.end(id)
			for pi, fr := range frames {
				if fr == nil {
					continue
				}
				if fr, err = rp.overWire(root, sid, fr); err != nil {
					return nil, err
				}
				switch {
				case sh.GroupShuffle:
					groups[pi] = append(groups[pi], fr.Groups)
				case sd.build:
					buildRows[pi] = append(buildRows[pi], fr.Rows...)
				default:
					probeRows[pi] = append(probeRows[pi], fr.Rows...)
				}
			}
		}
	}

	var merged *exec.TaskResult
	for pi := 0; pi < parts; pi++ {
		id := rp.rec.begin("exec.reduce", root, sid)
		var (
			res *exec.TaskResult
			err error
		)
		if sh.GroupShuffle {
			agg := exec.NewPartitionedAgg(len(p.Aggs), sh.MemoryGrant, exec.NewMemSpillStore(), exec.ShuffleBilling{})
			for _, g := range groups[pi] {
				if err = agg.Push(g); err != nil {
					break
				}
			}
			var g *exec.Groups
			if err == nil {
				g, err = agg.Flush()
			}
			res = &exec.TaskResult{Groups: g}
		} else {
			j := exec.NewPartitionedHashJoin(p, exec.NewMemSpillStore(), exec.ShuffleBilling{})
			if err = j.PushBuild(buildRows[pi]); err == nil {
				err = j.PushProbe(probeRows[pi])
			}
			if err == nil {
				res, err = j.Flush()
			}
		}
		rp.rec.end(id)
		if err == nil {
			res, err = rp.overWire(root, sid, res)
		}
		if err != nil {
			return nil, err
		}
		merged = rp.merge(root, sid, p, merged, res)
	}
	return merged, nil
}

// traceList is what the traced run replays: the first traceStmts distinct
// statements of the workload, in list order. dash_ingest has only fourteen distinct
// statements and its caches are invalidated every cycle, so it replays eight
// whole cycles instead; cycleLen is then the cycle's length.
func traceList(e *env) (list []*stmt, cycleLen int) {
	if e.w.ingest {
		for c := 0; c < 8; c++ {
			for i := range e.stmts {
				list = append(list, &e.stmts[i])
			}
		}
		return list, len(e.stmts)
	}
	seen := map[int]bool{}
	for i := range e.stmts {
		if st := &e.stmts[i]; !seen[st.id] && len(list) < e.w.traceStmts {
			seen[st.id] = true
			list = append(list, st)
		}
	}
	return list, 0
}

// replayPass replays the list once. Every answer is checked against the
// checker's own evaluation, so a replay that drifted from what the system
// does would be noticed.
func (rp *replay) replayPass(list []*stmt, cycleLen int, check bool) error {
	live := rp.e.chk.live(len(rp.e.chk.ingested))
	for i, st := range list {
		if cycleLen > 0 && i%cycleLen == 0 {
			// What an ingest does to the result cache between cycles.
			rp.rescache.InvalidateTable("logs")
		}
		res, err := rp.statement(i, st.sql)
		if err != nil {
			return err
		}
		if !check {
			continue
		}
		rp.e.attempted++
		got, ok := rp.e.chk.observe(st, res)
		if want := rp.e.chk.expect(st, live); !ok || got != want {
			rp.e.fail("replay %q: got %+v, want %+v", st.sql, got, want)
		}
	}
	return nil
}

// singleClient runs the same list through the system with one client and
// returns the mean latency: the end-to-end cost the replay's spans plus the
// cluster's orchestration must add up to.
func singleClient(e *env, list []*stmt, cycleLen int) (time.Duration, error) {
	var total time.Duration
	for i, st := range list {
		if cycleLen > 0 && i%cycleLen == 0 {
			e.ingestOne(e.pregenerate(1)[0])
		}
		t := time.Now()
		_, err := e.sys.Query(e.ctx, st.sql)
		total += time.Since(t)
		if err != nil {
			return 0, err
		}
	}
	return total / time.Duration(len(list)), nil
}
