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
// ships keyed frames sideways to *reducers* (the stems). Each reducer owns
// partitions pi where pi % len(reducers) == its index, stages incoming
// frames per (side, map ordinal, attempt), and on the end-marker verifies
// the frame counts and commits the attempt — first complete attempt wins,
// which keeps retries deterministic: any attempt of a map task partitions
// identical input identically, so whichever attempt commits, the reduce
// sees the same bag of rows. The master then sends each reducer one reduce
// request; the reducer runs the partitioned hash join (or partial-aggregate
// merge) per owned partition under a memory grant, spilling to global
// storage past it, and returns a merged TaskResult.
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

	// shuffleFrameRows bounds rows (or groups) per shuffle frame so transfer
	// billing and fault injection see a stream of bounded messages, not one
	// giant blob per partition.
	shuffleFrameRows = 256
)

// shuffleFrameMsg is one keyed frame of map output for a single partition.
// Exactly one of Rows/Groups is set (join vs group-by shuffle). It crosses
// the wire in the columnar batch form (codec.go).
type shuffleFrameMsg struct {
	Exchange  string
	QueryID   string
	Side      string
	Ordinal   int
	Attempt   int
	Partition int
	Rows      [][]types.Value
	Groups    []exec.Group
	Size      int64
}

// shuffleEndMsg is the map task's commit marker to one reducer: the exact
// per-partition frame counts it shipped there. The reducer verifies its
// staged counts match (catching dropped and duplicated frames) before
// committing the attempt.
type shuffleEndMsg struct {
	Exchange string
	QueryID  string
	Side     string
	Ordinal  int
	Attempt  int
	Frames   map[int]int
	Leaf     string
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
}

type shuffleReduceReply struct {
	Result     *exec.TaskResult
	PartSim    map[int]time.Duration // per-partition simulated reduce time
	SpillBytes int64
	DevBytes   map[string]int64
}

// shuffleCleanupMsg drops all staged/committed state for an exchange
// (best-effort broadcast after the query finishes or fails).
type shuffleCleanupMsg struct {
	Exchange string
}

type shuffleAck struct{}

// ---------------------------------------------------------------------------
// Leaf side: map tasks.

// routeShuffle hash-partitions a map task's output and ships it reducer by
// reducer: all owned partitions' frames, then the end-marker carrying the
// exact frame counts. The end-marker goes to every reducer — including
// those that received zero frames — so each can commit this ordinal. The
// reply reports transfer sim per partition (Fabric.Call charges transfer to
// the context bill when the route crosses racks). It returns the rows or
// groups routed.
func (l *LeafServer) routeShuffle(ctx context.Context, msg taskMsg, res *exec.TaskResult, reply *taskReply) (int, error) {
	parts := max(msg.Partitions, 1)
	reply.TransferSim, reply.PartBytes = make([]time.Duration, parts), make([]int64, parts)
	// Route every row or group straight into its partition's list; frames
	// are then consecutive runs of at most shuffleFrameRows of that list.
	rowParts := make([][][]types.Value, parts)
	groupParts := make([][]exec.Group, parts)
	routed := 0
	if msg.Side == shuffleSideGroup {
		if res.Groups != nil {
			routed = len(res.Groups.M)
			for k, g := range res.Groups.M {
				pi := exec.KeyShufflePartition(k, parts)
				groupParts[pi] = append(groupParts[pi], *g)
			}
		}
	} else {
		routed = len(res.Rows)
		for _, row := range res.Rows {
			pi := exec.ShufflePartition(row, msg.Keys, parts)
			rowParts[pi] = append(rowParts[pi], row)
		}
	}
	// One bill for everything shipped; a partition's share is what its
	// frames added to it (frames go out one after another).
	shipBill := sim.NewBill()
	sctx := storage.WithBill(ctx, shipBill)
	for ri, reducer := range msg.Reducers {
		frames := make(map[int]int)
		send := func(pi int, fr shuffleFrameMsg) error {
			fr.Exchange, fr.QueryID, fr.Side = msg.Exchange, msg.QueryID, msg.Side
			fr.Ordinal, fr.Attempt, fr.Partition = msg.Task.Ordinal, msg.Attempt, pi
			if _, err := l.Fabric.Call(sctx, l.Name, reducer, transport.Shuffle, fr, fr.Size); err != nil {
				return err
			}
			frames[pi]++
			reply.PartBytes[pi] += fr.Size
			return nil
		}
		for pi := ri; pi < parts; pi += len(msg.Reducers) {
			before := shipBill.Time()
			groups, rows := groupParts[pi], rowParts[pi]
			for off := 0; off < len(groups); off += shuffleFrameRows {
				chunk := groups[off:min(off+shuffleFrameRows, len(groups))]
				if err := send(pi, shuffleFrameMsg{Groups: chunk, Size: exec.EstimateGroups(chunk)}); err != nil {
					return routed, err
				}
			}
			for off := 0; off < len(rows); off += shuffleFrameRows {
				chunk := rows[off:min(off+shuffleFrameRows, len(rows))]
				size := (&exec.TaskResult{Rows: chunk}).EstimateBytes()
				if err := send(pi, shuffleFrameMsg{Rows: chunk, Size: size}); err != nil {
					return routed, err
				}
			}
			reply.TransferSim[pi] = shipBill.Time() - before
		}
		end := shuffleEndMsg{Exchange: msg.Exchange, QueryID: msg.QueryID, Side: msg.Side,
			Ordinal: msg.Task.Ordinal, Attempt: msg.Attempt, Frames: frames, Leaf: l.Name}
		if _, err := l.Fabric.Call(ctx, l.Name, reducer, transport.Shuffle, end, 64); err != nil {
			return routed, err
		}
	}
	return routed, nil
}

// ---------------------------------------------------------------------------
// Stem side: staging, commit, reduce.

// shuffleSideOrd identifies one map task within an exchange.
type shuffleSideOrd struct {
	side string
	ord  int
}

// shuffleStageKey identifies one attempt of a map task while it streams.
type shuffleStageKey struct {
	side    string
	ord     int
	attempt int
}

// stagedShuffle accumulates one attempt's frames, per partition.
type stagedShuffle struct {
	rows   map[int][][]types.Value
	groups map[int][]exec.Group
	frames map[int]int
	bytes  map[int]int64
	leaf   string
}

func newStagedShuffle() *stagedShuffle {
	return &stagedShuffle{
		rows:   map[int][][]types.Value{},
		groups: map[int][]exec.Group{},
		frames: map[int]int{},
		bytes:  map[int]int64{},
	}
}

// shuffleExchange is a reducer's state for one query's shuffle: in-flight
// attempts staging frames, and the committed attempt per map task.
type shuffleExchange struct {
	staged    map[shuffleStageKey]*stagedShuffle
	committed map[shuffleSideOrd]*stagedShuffle
}

func (s *StemServer) exchangeLocked(id string) *shuffleExchange {
	if s.shuffles == nil {
		s.shuffles = make(map[string]*shuffleExchange)
	}
	ex := s.shuffles[id]
	if ex == nil {
		ex = &shuffleExchange{
			staged:    map[shuffleStageKey]*stagedShuffle{},
			committed: map[shuffleSideOrd]*stagedShuffle{},
		}
		s.shuffles[id] = ex
	}
	return ex
}

func (s *StemServer) handleShuffleFrame(msg shuffleFrameMsg) (any, error) {
	s.shuffleMu.Lock()
	defer s.shuffleMu.Unlock()
	ex := s.exchangeLocked(msg.Exchange)
	if _, done := ex.committed[shuffleSideOrd{msg.Side, msg.Ordinal}]; done {
		// A duplicate or late attempt of an already-committed map task:
		// ignore it — any attempt partitions identical input identically.
		return shuffleAck{}, nil
	}
	key := shuffleStageKey{msg.Side, msg.Ordinal, msg.Attempt}
	st := ex.staged[key]
	if st == nil {
		st = newStagedShuffle()
		ex.staged[key] = st
	}
	if msg.Groups != nil {
		st.groups[msg.Partition] = append(st.groups[msg.Partition], msg.Groups...)
	} else {
		st.rows[msg.Partition] = append(st.rows[msg.Partition], msg.Rows...)
	}
	st.frames[msg.Partition]++
	st.bytes[msg.Partition] += msg.Size
	return shuffleAck{}, nil
}

func (s *StemServer) handleShuffleEnd(msg shuffleEndMsg) (any, error) {
	s.shuffleMu.Lock()
	defer s.shuffleMu.Unlock()
	ex := s.exchangeLocked(msg.Exchange)
	key := shuffleStageKey{msg.Side, msg.Ordinal, msg.Attempt}
	st := ex.staged[key]
	delete(ex.staged, key)
	so := shuffleSideOrd{msg.Side, msg.Ordinal}
	if _, done := ex.committed[so]; done {
		return shuffleAck{}, nil
	}
	if st == nil {
		st = newStagedShuffle()
	}
	// Verify the exact frame counts the leaf shipped here: a dropped or
	// duplicated frame (fault injection) voids the attempt so the master
	// retries it; the retry re-partitions identical input, so whichever
	// attempt commits first, the reduce sees the same rows.
	if len(st.frames) != len(msg.Frames) {
		return nil, fmt.Errorf("cluster: shuffle %s: %s#%d attempt %d: frames for %d partition(s) staged, %d expected",
			msg.Exchange, msg.Side, msg.Ordinal, msg.Attempt, len(st.frames), len(msg.Frames))
	}
	for pi, want := range msg.Frames {
		if st.frames[pi] != want {
			return nil, fmt.Errorf("cluster: shuffle %s: %s#%d attempt %d partition %d: %d frame(s) staged, %d expected",
				msg.Exchange, msg.Side, msg.Ordinal, msg.Attempt, pi, st.frames[pi], want)
		}
	}
	st.leaf = msg.Leaf
	ex.committed[so] = st
	s.Events.Emit(events.TaskSite(msg.QueryID, msg.Ordinal), events.ShuffleCommit, msg.QueryID, msg.Ordinal,
		fmt.Sprintf("side=%s attempt=%d from %s @ %s", msg.Side, msg.Attempt, msg.Leaf, s.Name))
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
// spill and read-back costs, plus a CPU charge proportional to staged input
// bytes) so the master can attribute per-partition reduce sim.
func (s *StemServer) handleShuffleReduce(ctx context.Context, msg shuffleReduceMsg) (any, error) {
	_, span := trace.StartSpan(ctx, "reduce/"+s.Name)
	defer span.Finish()
	sh := msg.Plan.Shuffle
	if sh == nil {
		return nil, fmt.Errorf("cluster: stem %s: reduce request without shuffle spec", s.Name)
	}

	// Snapshot the committed staging under the lock; committed entries are
	// never mutated after commit (late frames check committed first).
	s.shuffleMu.Lock()
	committed := maps.Clone(s.exchangeLocked(msg.Exchange).committed)
	s.shuffleMu.Unlock()
	for _, side := range []struct {
		name string
		ords []int
	}{{shuffleSideProbe, msg.ProbeOrdinals}, {shuffleSideBuild, msg.BuildOrdinals}, {shuffleSideGroup, msg.GroupOrdinals}} {
		for _, ord := range side.ords {
			if committed[shuffleSideOrd{side.name, ord}] == nil {
				return nil, fmt.Errorf("cluster: shuffle %s: %s#%d never committed at %s", msg.Exchange, side.name, ord, s.Name)
			}
		}
	}

	var spill exec.SpillStore
	if s.Router != nil {
		spill = &routerSpillStore{ctx: ctx, router: s.Router, prefix: msg.SpillPrefix + "/" + s.Name}
	}
	parts := append([]int(nil), msg.Partitions...)
	sort.Ints(parts)

	var merged *exec.TaskResult
	partSim := make(map[int]time.Duration, len(parts))
	reduceBill := sim.NewBill()
	var spilled int64
	var total time.Duration
	for _, pi := range parts {
		partBill := sim.NewBill()
		site := fmt.Sprintf("shuffle/%s#p%d", msg.QueryID, pi)
		billing := exec.ShuffleBilling{Model: s.Model, Bill: partBill, OnSpill: func(n int64) {
			s.Events.Emit(site, events.ShuffleSpill, msg.QueryID, pi, fmt.Sprintf("%d bytes @ %s", n, s.Name))
		}}
		var res *exec.TaskResult
		var inBytes int64
		if sh.GroupShuffle {
			agg := exec.NewPartitionedAgg(len(msg.Plan.Aggs), sh.MemoryGrant, spill, billing)
			for _, ord := range msg.GroupOrdinals {
				st := committed[shuffleSideOrd{shuffleSideGroup, ord}]
				inBytes += st.bytes[pi]
				if err := agg.PushGroups(st.groups[pi]); err != nil {
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
				st := committed[shuffleSideOrd{shuffleSideBuild, ord}]
				inBytes += st.bytes[pi]
				if err := j.PushBuild(st.rows[pi]); err != nil {
					return nil, err
				}
			}
			for _, ord := range msg.ProbeOrdinals {
				st := committed[shuffleSideOrd{shuffleSideProbe, ord}]
				inBytes += st.bytes[pi]
				if err := j.PushProbe(st.rows[pi]); err != nil {
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
		partSim[pi] = partBill.Time()
		total += partBill.Time()
		reduceBill.Add(partBill)
		if msg.QueryID != "" {
			rows := len(res.Rows)
			if res.Groups != nil {
				rows = len(res.Groups.M)
			}
			s.Events.EmitSim(site, events.ShuffleReduce, msg.QueryID, pi, partSim[pi],
				fmt.Sprintf("%s rows=%d", s.Name, rows))
		}
		merged = exec.MergeResults(msg.Plan, merged, res)
	}
	span.SetSim(total)
	s.shuffleMu.Lock()
	delete(s.shuffles, msg.Exchange)
	s.shuffleMu.Unlock()
	return shuffleReduceReply{Result: merged, PartSim: partSim, SpillBytes: spilled, DevBytes: deviceBytes(reduceBill)}, nil
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
	rows, rest, err := types.DecodeRows(data)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%w: %d trailing bytes", types.ErrCorruptBatch, len(rest))
	}
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: decode shuffle spill %s: %w", handle, err)
	}
	return rows, int64(len(data)), nil
}

// ---------------------------------------------------------------------------
// Master side: the shuffle driver.

// shuffle executes a repartitioned statement: map tasks on the leaves —
// placed, sent, retried and accounted like any other task (runTasks) — keyed
// frames to the reducers, then one reduce per reducer. SimTime models the
// three phases as sequential: busiest map leaf + slowest reducer's inbound
// transfer + slowest reducer's reduce work.
func (q *statement) shuffle(ctx context.Context) (*exec.TaskResult, error) {
	m, sh := q.m, q.p.Shuffle
	route := &taskMsg{QueryID: q.qid, Exchange: q.qid + "/shuffle", Partitions: max(sh.Partitions, 1), Keys: sh.Keys,
		Reducers: m.Manager.AliveWorkers(KindStem)} // sorted by name
	if len(route.Reducers) == 0 {
		route.Reducers = []string{m.cfg.Name}
	}
	// Map tasks, with globally unique ordinals across sides (build side
	// first). TaskSpec.Key() ignores the ordinal, so renumbering is safe.
	job := stemJobMsg{Plan: q.p, Route: route}
	reduce := shuffleReduceMsg{Exchange: route.Exchange, QueryID: q.qid, Plan: q.p, SpillPrefix: "/hdfs/feisu-shuffle/" + q.qid}
	addSide := func(side string, mp *plan.PhysicalPlan, ords *[]int) {
		tasks := mp.Tasks()
		job.Tasks, job.Sides, *ords = slices.Grow(job.Tasks, len(tasks)), slices.Grow(job.Sides, len(tasks)), make([]int, 0, len(tasks))
		for _, t := range tasks {
			t.Ordinal = len(job.Tasks)
			job.Tasks = append(job.Tasks, t)
			job.Sides = append(job.Sides, side)
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
	// (or a failed query's staging) must not leak exchange state.
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
		err = fmt.Errorf("map %s#%d on %s: %s", job.Sides[te.Ordinal], te.Ordinal, te.Leaf, te.Err)
	case deadline:
		err = ctx.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrShuffleFailed, err)
	}
	transferMax := q.shuffleTransfer(ctx, route, groups)
	merged, reduceMax, err := q.shuffleReduce(ctx, route, reduce)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrShuffleFailed, err)
	}
	q.stats.SimTime += transferMax + reduceMax
	return merged, nil
}

// shuffleTransfer is phase 2, pure accounting. The frames already moved
// (inside the map phase's wall clock), but the simulated transfer is modeled
// as its own pipeline stage: the slowest reducer's total inbound transfer.
func (q *statement) shuffleTransfer(ctx context.Context, route *taskMsg, groups []groupDone) time.Duration {
	transferSim := make([]time.Duration, route.Partitions)
	transferBytes := make([]int64, route.Partitions)
	for _, g := range groups {
		for _, d := range g.tasks {
			for pi, dur := range d.TransferSim {
				transferSim[pi] += dur
			}
			for pi, n := range d.PartBytes {
				transferBytes[pi] += n
			}
		}
	}
	_, span := trace.StartSpan(ctx, "shuffle-transfer")
	reducerIn := make([]time.Duration, len(route.Reducers))
	var slowest time.Duration
	for pi := range transferSim {
		ri := pi % len(route.Reducers)
		reducerIn[ri] += transferSim[pi]
		slowest = max(slowest, reducerIn[ri])
		if span != nil {
			ps := span.Child(fmt.Sprintf("partition %d -> %s", pi, route.Reducers[ri]))
			ps.SetSim(transferSim[pi])
			ps.Count("bytes", transferBytes[pi])
			ps.Finish()
		}
	}
	span.SetSim(slowest)
	span.Finish()
	return slowest
}

// shuffleReduce is phase 3: one reduce request per reducer — msg with the
// partitions it owns — concurrently. It returns the merged result and the
// slowest reducer's simulated time.
func (q *statement) shuffleReduce(ctx context.Context, route *taskMsg, msg shuffleReduceMsg) (*exec.TaskResult, time.Duration, error) {
	rctx, rspan := trace.StartSpan(ctx, "shuffle-reduce")
	var (
		mu        sync.Mutex
		merged    *exec.TaskResult
		redErr    error
		reduceMax time.Duration
		wg        sync.WaitGroup
	)
	for ri, r := range route.Reducers[:min(len(route.Reducers), route.Partitions)] { // the rest own no partition
		msg.Partitions = nil
		for pi := ri; pi < route.Partitions; pi += len(route.Reducers) {
			msg.Partitions = append(msg.Partitions, pi)
		}
		wg.Add(1)
		go func(r string, msg shuffleReduceMsg) {
			defer wg.Done()
			reply, err := callStem[shuffleReduceReply](rctx, q.m, r, msg)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if redErr == nil {
					redErr = fmt.Errorf("reduce @ %s: %w", r, err)
				}
				return
			}
			var total time.Duration
			for _, pi := range msg.Partitions { // ascending
				total += reply.PartSim[pi]
				if rspan != nil {
					ps := rspan.Child(fmt.Sprintf("partition %d @ %s", pi, r))
					ps.SetSim(reply.PartSim[pi])
					ps.Finish()
				}
			}
			reduceMax = max(reduceMax, total)
			q.stats.ShuffleSpillBytes += reply.SpillBytes
			for dev, n := range reply.DevBytes {
				q.stats.BytesByDevice[dev] += n
			}
			merged = exec.MergeResults(q.p, merged, reply.Result)
		}(r, msg)
	}
	wg.Wait()
	rspan.SetSim(reduceMax)
	rspan.Finish()
	if merged == nil {
		merged = &exec.TaskResult{}
	}
	return merged, reduceMax, redErr
}
