package cluster

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/types"
)

// Distributed hash shuffle (DESIGN.md "Distributed shuffle & general joins").
//
// When the planner attaches a ShuffleSpec, the query stops being a pure
// scatter/gather: every fact (and build-table) partition becomes a *map*
// task that scans, hash-partitions its rows on the join/group keys, and
// sends each *reducer* (the stems) one message with its share. Each reducer
// owns partitions pi where pi % len(reducers) == its index and commits the
// first message it receives per (side, map ordinal); a duplicate or a later
// attempt is dropped. That keeps retries deterministic: any attempt of a map
// task partitions identical input identically, so whichever attempt
// commits, the reduce sees the same bag of rows. The master then sends each
// reducer one reduce request; the reducer runs the partitioned hash join (or
// partial-aggregate merge) per owned partition under a memory grant,
// spilling to global storage past it, and returns a merged TaskResult.
//
// Failure policy: a map task that exhausts its retries fails the query with
// ErrShuffleFailed even under QueryOptions.PartialResults — dropping a map
// task would silently drop join matches, unlike the scatter/gather path
// where a lost task only loses its own partition's rows.

// ErrShuffleFailed marks a repartitioned query that permanently lost a map
// or reduce stage. Shuffle queries cannot degrade to partial results, so
// this typed error is returned even when QueryOptions.PartialResults is set.
var ErrShuffleFailed = errors.New("cluster: shuffle stage failed permanently")

const (
	shuffleSideProbe = "probe"
	shuffleSideBuild = "build"
	shuffleSideGroup = "group"
)

// shuffleMsg is one map task attempt's whole output for one reducer: a part
// per partition the reducer owns, in ascending partition order, empty parts
// included. It crosses the wire in the columnar batch form (codec.go).
type shuffleMsg struct {
	Exchange string
	QueryID  string
	Side     string
	Ordinal  int
	Attempt  int
	Parts    []shufflePart
}

// shufflePart is one partition's share of a map task's output. Exactly one
// of Rows/Groups is set (join vs group-by shuffle) unless the share is
// empty; Size is its estimated bytes.
type shufflePart struct {
	Partition int
	Size      int64
	Rows      [][]types.Value
	Groups    []exec.Group
}

// shuffleReduceMsg asks a reducer to join/merge its owned partitions from
// the committed map outputs and return one merged TaskResult.
type shuffleReduceMsg struct {
	Exchange      string
	QueryID       string
	Plan          *plan.PhysicalPlan
	Partitions    []int
	ProbeOrdinals []int
	BuildOrdinals []int
	GroupOrdinals []int
	SpillPrefix   string
	Traced        bool // the reply carries the reducer's spans
}

type shuffleReduceReply struct {
	Result     *exec.TaskResult
	Sim        time.Duration // simulated reduce time, its partitions' in turn
	SpillBytes int64
	DevBytes   sim.DeviceBytes
	Span       *trace.Span // traced: holds reduce/<stem> and a span per partition
}

// shuffleCleanupMsg drops all committed state for an exchange
// (best-effort broadcast after the query finishes or fails).
type shuffleCleanupMsg struct {
	Exchange string
}

type shuffleAck struct{}

// ---------------------------------------------------------------------------
// Leaf side: map tasks.

// routeShuffle hash-partitions a map task's output and sends every reducer
// one shuffleMsg: a part per partition it owns, empty parts included, so
// each reducer can commit this ordinal. Each message is billed as one
// transfer of its bytes when the route crosses nodes, and the reply reports
// each reducer's bytes and transfer sim; the call itself carries no bill. It
// returns the rows or groups routed.
func (l *LeafServer) routeShuffle(ctx context.Context, msg *taskBatch, ordinal int, side string, res *exec.TaskResult, st *taskStatus) (int, error) {
	parts := max(msg.Partitions, 1)
	st.TransferSim, st.TransferBytes = make([]time.Duration, len(msg.Reducers)), make([]int64, len(msg.Reducers))
	// Route every row or group to its partition's part (cutShares).
	shares, pis := make([]shufflePart, parts), []int(nil)
	if side != shuffleSideGroup {
		pis = make([]int, len(res.Rows))
		for i, row := range res.Rows {
			pis[i] = exec.ShufflePartition(row, msg.Keys, parts)
		}
		for pi, share := range cutShares(res.Rows, pis, parts) {
			shares[pi].Rows = share
		}
	} else if res.Groups != nil {
		gs := make([]exec.Group, 0, len(res.Groups.M))
		pis = make([]int, 0, len(res.Groups.M))
		for k, g := range res.Groups.M {
			gs, pis = append(gs, *g), append(pis, exec.KeyShufflePartition(k, parts))
		}
		for pi, share := range cutShares(gs, pis, parts) {
			shares[pi].Groups = share
		}
	}
	for ri, reducer := range msg.Reducers {
		out := shuffleMsg{Exchange: msg.Exchange, QueryID: msg.QueryID, Side: side, Ordinal: ordinal, Attempt: msg.Attempt}
		var size int64
		for pi := ri; pi < parts; pi += len(msg.Reducers) {
			p := &shares[pi]
			p.Partition = pi
			switch {
			case p.Groups != nil:
				p.Size = exec.EstimateGroups(p.Groups)
			case p.Rows != nil:
				p.Size = exec.EstimateRows(p.Rows)
			}
			size += p.Size
			out.Parts = append(out.Parts, *p)
		}
		st.TransferBytes[ri] = size
		if hops := l.Fabric.Topology().Hops(l.Name, reducer); hops > 0 && l.Model != nil {
			st.TransferSim[ri] = l.Model.TransferCost(size, hops)
		}
		if _, err := l.Fabric.Call(ctx, l.Name, reducer, transport.Shuffle, out, size); err != nil {
			return len(pis), err
		}
	}
	return len(pis), nil
}

// cutShares routes item i to share pis[i], in order, by counting sort: every
// share is cut from one backing slice, and an empty one is nil.
func cutShares[T any](items []T, pis []int, parts int) [][]T {
	counts := make([]int, parts)
	for _, pi := range pis {
		counts[pi]++
	}
	shares, rest := make([][]T, parts), make([]T, len(items))
	for p, c := range counts {
		if c > 0 {
			shares[p], rest = rest[:0:c], rest[c:]
		}
	}
	for i, pi := range pis {
		shares[pi] = append(shares[pi], items[i])
	}
	return shares
}

// ---------------------------------------------------------------------------
// Stem side: commit, reduce.

// shuffleSideOrd identifies one map task within an exchange.
type shuffleSideOrd struct {
	side string
	ord  int
}

// exchangeLocked returns a reducer's state for one query's shuffle: the
// committed message per map task.
func (s *StemServer) exchangeLocked(id string) map[shuffleSideOrd]*shuffleMsg {
	if s.shuffles == nil {
		s.shuffles = make(map[string]map[shuffleSideOrd]*shuffleMsg)
	}
	if s.shuffles[id] == nil {
		s.shuffles[id] = make(map[shuffleSideOrd]*shuffleMsg)
	}
	return s.shuffles[id]
}

// handleShuffle commits the first message from each map task. A duplicate
// delivery or a later attempt of a committed map task is acked and dropped:
// any attempt partitions identical input identically.
func (s *StemServer) handleShuffle(from string, msg shuffleMsg) (any, error) {
	s.shuffleMu.Lock()
	defer s.shuffleMu.Unlock()
	committed := s.exchangeLocked(msg.Exchange)
	so := shuffleSideOrd{msg.Side, msg.Ordinal}
	if _, done := committed[so]; done {
		return shuffleAck{}, nil
	}
	committed[so] = &msg
	// The commit's site is the (map task, reducer) pair's, and a reducer
	// commits a map task once: its one event.
	if s.Events.Enabled() {
		s.Events.Emit(events.TaskSite(msg.QueryID, msg.Ordinal)+"@"+s.Name, 1, events.ShuffleCommit, msg.QueryID, msg.Ordinal,
			fmt.Sprintf("side=%s attempt=%d from %s @ %s", msg.Side, msg.Attempt, from, s.Name))
	}
	return shuffleAck{}, nil
}

func (s *StemServer) handleShuffleCleanup(msg shuffleCleanupMsg) (any, error) {
	s.shuffleMu.Lock()
	defer s.shuffleMu.Unlock()
	delete(s.shuffles, msg.Exchange)
	return shuffleAck{}, nil
}

// handleShuffleReduce joins/merges this reducer's owned partitions from the
// committed map outputs. Each partition gets a private bill (its grace-hash
// spill and read-back costs, plus a CPU charge proportional to its input
// bytes) so the master can attribute per-partition reduce sim.
func (s *StemServer) handleShuffleReduce(ctx context.Context, msg shuffleReduceMsg) (any, error) {
	var holder, span *trace.Span
	if msg.Traced {
		holder = trace.New("")
		span = holder.Child("reduce/" + s.Name)
		defer span.Finish()
	}
	sh := msg.Plan.Shuffle
	if sh == nil {
		return nil, fmt.Errorf("cluster: stem %s: reduce request without shuffle spec", s.Name)
	}
	parts := append([]int(nil), msg.Partitions...)
	sort.Ints(parts)

	// Snapshot the committed messages under the lock; a committed message is
	// never mutated, and each must carry exactly this reducer's partitions,
	// ascending, so part k below is partition parts[k].
	s.shuffleMu.Lock()
	committed := maps.Clone(s.exchangeLocked(msg.Exchange))
	s.shuffleMu.Unlock()
	for _, side := range []struct {
		name string
		ords []int
	}{{shuffleSideProbe, msg.ProbeOrdinals}, {shuffleSideBuild, msg.BuildOrdinals}, {shuffleSideGroup, msg.GroupOrdinals}} {
		for _, ord := range side.ords {
			m := committed[shuffleSideOrd{side.name, ord}]
			if m == nil {
				return nil, fmt.Errorf("cluster: shuffle %s: %s#%d never committed at %s", msg.Exchange, side.name, ord, s.Name)
			}
			if !slices.EqualFunc(m.Parts, parts, func(p shufflePart, pi int) bool { return p.Partition == pi }) {
				return nil, fmt.Errorf("cluster: shuffle %s: %s#%d at %s carries %d part(s), not partitions %v",
					msg.Exchange, side.name, ord, s.Name, len(m.Parts), parts)
			}
		}
	}

	var spill exec.SpillStore
	if s.Router != nil {
		spill = &routerSpillStore{ctx: ctx, router: s.Router, prefix: msg.SpillPrefix + "/" + s.Name}
	}

	var merged *exec.TaskResult
	reduceBill := sim.NewBill()
	var spilled int64
	for k, pi := range parts {
		part := func(side string, ord int) shufflePart { return committed[shuffleSideOrd{side, ord}].Parts[k] }
		partBill := sim.NewBill()
		// The partition's site is this reducer's alone: it numbers the
		// partition's spills and then its reduce.
		site, seq := fmt.Sprintf("shuffle/%s#p%d", msg.QueryID, pi), uint64(0)
		billing := exec.ShuffleBilling{Model: s.Model, Bill: partBill, OnSpill: func(n int64) {
			seq++
			s.Events.Emit(site, seq, events.ShuffleSpill, msg.QueryID, pi, fmt.Sprintf("%d bytes @ %s", n, s.Name))
		}}
		var res *exec.TaskResult
		var inBytes int64
		if sh.GroupShuffle {
			agg := exec.NewPartitionedAgg(len(msg.Plan.Aggs), sh.MemoryGrant, spill, billing)
			for _, ord := range msg.GroupOrdinals {
				p := part(shuffleSideGroup, ord)
				inBytes += p.Size
				if err := agg.PushGroups(p.Groups); err != nil {
					return nil, err
				}
			}
			groups, err := agg.Flush()
			if err != nil {
				return nil, err
			}
			res = &exec.TaskResult{Groups: groups}
			spilled += agg.SpilledBytes
		} else {
			j := exec.NewPartitionedHashJoin(msg.Plan, spill, billing)
			for _, ord := range msg.BuildOrdinals {
				p := part(shuffleSideBuild, ord)
				inBytes += p.Size
				if err := j.PushBuild(p.Rows); err != nil {
					return nil, err
				}
			}
			for _, ord := range msg.ProbeOrdinals {
				p := part(shuffleSideProbe, ord)
				inBytes += p.Size
				if err := j.PushProbe(p.Rows); err != nil {
					return nil, err
				}
			}
			r, err := j.Flush()
			if err != nil {
				return nil, err
			}
			res = r
			spilled += j.SpilledBytes
		}
		if s.Model != nil {
			partBill.ChargeScan(s.Model, inBytes)
		}
		reduceBill.Add(partBill)
		if holder != nil {
			ps := holder.Child(fmt.Sprintf("partition %d @ %s", pi, s.Name))
			ps.SetSim(partBill.Time())
			ps.Finish()
		}
		if msg.QueryID != "" {
			rows := len(res.Rows)
			if res.Groups != nil {
				rows = len(res.Groups.M)
			}
			s.Events.EmitSim(site, seq+1, events.ShuffleReduce, msg.QueryID, pi, partBill.Time(),
				fmt.Sprintf("%s rows=%d", s.Name, rows))
		}
		merged = exec.MergeResults(msg.Plan, merged, res)
	}
	span.SetSim(reduceBill.Time())
	s.shuffleMu.Lock()
	delete(s.shuffles, msg.Exchange)
	s.shuffleMu.Unlock()
	return shuffleReduceReply{Result: merged, Sim: reduceBill.Time(), SpillBytes: spilled, DevBytes: reduceBill.DeviceBytes(), Span: holder}, nil
}

// routerSpillStore backs grace-hash spills with the cluster's global
// storage router. Writes go through an unbilled context: the operator's
// ShuffleBilling charges the spill (write) and read-back explicitly, so
// billing here would double-count.
type routerSpillStore struct {
	ctx    context.Context
	router *storage.Router
	prefix string
	seq    int
}

func (s *routerSpillStore) Write(rows [][]types.Value) (string, int64, error) {
	data := types.AppendRows(nil, rows)
	s.seq++
	path := fmt.Sprintf("%s/chunk-%d", s.prefix, s.seq)
	if err := s.router.WriteFile(context.WithoutCancel(s.ctx), path, data); err != nil {
		return "", 0, fmt.Errorf("cluster: shuffle spill %s: %w", path, err)
	}
	return path, int64(len(data)), nil
}

func (s *routerSpillStore) Read(handle string) ([][]types.Value, int64, error) {
	data, err := s.router.ReadFile(context.WithoutCancel(s.ctx), handle)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: shuffle spill read %s: %w", handle, err)
	}
	rows, err := types.ReadAll(data, (*types.Reader).Rows)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: decode shuffle spill %s: %w", handle, err)
	}
	return rows, int64(len(data)), nil
}

// ---------------------------------------------------------------------------
// Master side: the shuffle driver.

// shuffle executes a repartitioned statement: map tasks on the leaves —
// placed, sent, retried and accounted like any other task (runTasks) — each
// sending every reducer its share, then one reduce per reducer. SimTime models the
// three phases as sequential: busiest map leaf + slowest reducer's inbound
// transfer + slowest reducer's reduce work.
func (q *statement) shuffle(ctx context.Context) (*exec.TaskResult, error) {
	m, sh := q.m, q.p.Shuffle
	route := taskBatch{Exchange: q.qid + "/shuffle", Partitions: max(sh.Partitions, 1), Keys: sh.Keys,
		Reducers: m.Manager.AliveWorkers(KindStem)} // sorted by name
	if len(route.Reducers) == 0 {
		route.Reducers = []string{m.cfg.Name}
	}
	// Map tasks, with globally unique ordinals across sides (build side
	// first). TaskSpec.Key() ignores the ordinal, so renumbering is safe.
	job := stemJobMsg{Plan: q.p, Batch: route}
	reduce := shuffleReduceMsg{Exchange: route.Exchange, QueryID: q.qid, Plan: q.p, SpillPrefix: "/hdfs/feisu-shuffle/" + q.qid, Traced: q.root != nil}
	addSide := func(side string, mp *plan.PhysicalPlan, ords *[]int) {
		tasks := mp.Tasks()
		job.Tasks, job.Batch.Sides, *ords = slices.Grow(job.Tasks, len(tasks)), slices.Grow(job.Batch.Sides, len(tasks)), make([]int, 0, len(tasks))
		for _, t := range tasks {
			t.Ordinal = len(job.Tasks)
			job.Tasks = append(job.Tasks, t)
			job.Batch.Sides = append(job.Batch.Sides, side)
			*ords = append(*ords, t.Ordinal)
		}
	}
	if sh.GroupShuffle {
		addSide(shuffleSideGroup, q.p, &reduce.GroupOrdinals)
	} else {
		addSide(shuffleSideBuild, sh.BuildPlan, &reduce.BuildOrdinals)
		addSide(shuffleSideProbe, sh.ProbePlan, &reduce.ProbeOrdinals)
	}
	// Best-effort cleanup on every exit path: reducers that ran no reduce
	// (or a failed query's commits) must not leak exchange state.
	defer func() {
		for _, r := range route.Reducers {
			callStem[shuffleAck](context.WithoutCancel(ctx), m, r, shuffleCleanupMsg{Exchange: route.Exchange})
		}
	}()

	// Phase 1: map. A lost map task loses join matches, not just its own
	// partition's rows, so any failure fails the statement.
	mctx, mspan := trace.StartSpan(ctx, "shuffle-map")
	groups, deadline, err := q.runTasks(mctx, job)
	mspan.SetSim(q.stats.SimTime)
	mspan.Finish()
	switch {
	case err != nil: // nowhere to place them
	case len(q.stats.TaskErrors) > 0:
		te := q.stats.TaskErrors[0]
		err = fmt.Errorf("map %s#%d on %s: %s", job.Batch.Sides[te.Ordinal], te.Ordinal, te.Leaf, te.Err)
	case deadline:
		err = ctx.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrShuffleFailed, err)
	}
	transferMax := q.shuffleTransfer(ctx, &route, groups)
	merged, reduceMax, err := q.shuffleReduce(ctx, &route, reduce)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrShuffleFailed, err)
	}
	q.stats.SimTime += transferMax + reduceMax
	return merged, nil
}

// shuffleTransfer is phase 2, pure accounting. The map output already moved
// (inside the map phase's wall clock), but the simulated transfer is modeled
// as its own pipeline stage: the slowest reducer's inbound messages, one
// transfer each, summed.
func (q *statement) shuffleTransfer(ctx context.Context, route *taskBatch, groups []groupDone) time.Duration {
	reducerIn := make([]time.Duration, len(route.Reducers))
	reducerBytes := make([]int64, len(route.Reducers))
	for _, g := range groups {
		for _, d := range g.tasks {
			for ri, dur := range d.TransferSim {
				reducerIn[ri] += dur
			}
			for ri, n := range d.TransferBytes {
				reducerBytes[ri] += n
			}
		}
	}
	_, span := trace.StartSpan(ctx, "shuffle-transfer")
	var slowest time.Duration
	for ri, in := range reducerIn {
		slowest = max(slowest, in)
		if span != nil {
			rs := span.Child("-> " + route.Reducers[ri])
			rs.SetSim(in)
			rs.Count("bytes", reducerBytes[ri])
			rs.Finish()
		}
	}
	span.SetSim(slowest)
	span.Finish()
	return slowest
}

// shuffleReduce is phase 3: one reduce request per reducer — msg with the
// partitions it owns — concurrently. The replies fold in ascending reducer
// index once all are in, never in arrival order: float aggregates are not
// associative, so the order of the fold is part of the answer. It returns
// the merged result and the slowest reducer's simulated time.
func (q *statement) shuffleReduce(ctx context.Context, route *taskBatch, msg shuffleReduceMsg) (*exec.TaskResult, time.Duration, error) {
	rctx, rspan := trace.StartSpan(ctx, "shuffle-reduce")
	defer rspan.Finish()
	reducers := route.Reducers[:min(len(route.Reducers), route.Partitions)] // the rest own no partition
	msgs := make([]shuffleReduceMsg, len(reducers))
	replies := make([]shuffleReduceReply, len(reducers))
	errs := make([]error, len(reducers))
	var wg sync.WaitGroup
	for ri, r := range reducers {
		msgs[ri] = msg
		msgs[ri].Partitions = nil
		for pi := ri; pi < route.Partitions; pi += len(route.Reducers) {
			msgs[ri].Partitions = append(msgs[ri].Partitions, pi)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[ri], errs[ri] = callStem[shuffleReduceReply](rctx, q.m, r, msgs[ri])
		}()
	}
	wg.Wait()
	for ri, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("reduce @ %s: %w", reducers[ri], err)
		}
	}
	var merged *exec.TaskResult
	var reduceMax time.Duration
	for _, reply := range replies {
		rspan.Adopt(reply.Span)
		reduceMax = max(reduceMax, reply.Sim)
		q.stats.ShuffleSpillBytes += reply.SpillBytes
		reply.DevBytes.AddTo(q.stats.BytesByDevice)
		merged = exec.MergeResults(q.p, merged, reply.Result)
	}
	rspan.SetSim(reduceMax)
	if merged == nil {
		merged = &exec.TaskResult{}
	}
	return merged, reduceMax, nil
}
