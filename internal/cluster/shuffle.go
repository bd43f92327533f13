package cluster

import (
	"context"
	"errors"
	"fmt"
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

// shuffleTaskMsg asks a leaf to run one map task: scan the partition with
// the side's sub-plan, hash-partition the output, and ship keyed frames to
// the reducers.
type shuffleTaskMsg struct {
	Task       plan.TaskSpec
	QueryID    string
	Exchange   string // exchange ID, unique per query
	Side       string // shuffleSideProbe | shuffleSideBuild | shuffleSideGroup
	Attempt    int
	Partitions int
	Keys       int // leading key columns in each map-output row (join sides)
	Reducers   []string
}

// shuffleTaskReply carries no data — rows went sideways to the reducers.
// It reports the scan cost and the per-partition transfer accounting.
type shuffleTaskReply struct {
	SimTime     time.Duration         // scan + local CPU, excluding shipping
	TransferSim map[int]time.Duration // per-partition simulated ship time
	PartBytes   map[int]int64         // per-partition bytes shipped
	Rows        int
	DevBytes    map[string]int64
}

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

// runShuffleTask executes one map task: scan like a normal task, then
// hash-partition the output and ship frames to the reducers. Each
// partition's frames are billed to a private bill so the reply can report
// per-partition transfer sim (Fabric.Call charges transfer automatically
// from the context bill when the route crosses racks).
func (l *LeafServer) runShuffleTask(ctx context.Context, msg shuffleTaskMsg) (any, error) {
	l.active.Add(1)
	defer l.active.Add(-1)
	l.Tasks.Inc()
	ctx, span := trace.StartSpan(ctx, "leaf/"+l.Name)
	defer span.Finish()
	span.SetAttr("partition", msg.Task.Partition.Path)
	if d := l.Stall(); d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	bill := sim.NewBill()
	res, err := exec.RunTaskModel(storage.WithBill(ctx, bill), msg.Task, l.Reader, l.Index, l.Model)
	if err != nil {
		return nil, err
	}
	l.chargeRemoteRead(ctx, bill, msg.Task.Partition.Path)
	span.SetSim(bill.Time())
	billSpans(span, bill)

	reply, err := l.routeShuffle(ctx, msg, res)
	if err != nil {
		return nil, err
	}
	reply.SimTime = bill.Time()
	reply.DevBytes = deviceBytes(bill)
	if msg.QueryID != "" {
		l.Events.EmitSim(events.TaskSite(msg.QueryID, msg.Task.Ordinal), events.ShuffleMap,
			msg.QueryID, msg.Task.Ordinal, bill.Time(),
			fmt.Sprintf("%s side=%s attempt=%d rows=%d", l.Name, msg.Side, msg.Attempt, reply.Rows))
	}
	return reply, nil
}

// routeShuffle hash-partitions the map output and ships it reducer by
// reducer: all owned partitions' frames, then the end-marker carrying the
// exact frame counts. The end-marker goes to every reducer — including
// those that received zero frames — so each can commit this ordinal.
func (l *LeafServer) routeShuffle(ctx context.Context, msg shuffleTaskMsg, res *exec.TaskResult) (shuffleTaskReply, error) {
	reply := shuffleTaskReply{TransferSim: map[int]time.Duration{}, PartBytes: map[int]int64{}}
	parts := msg.Partitions
	if parts <= 0 {
		parts = 1
	}
	// Route every row or group straight into its partition's list; frames
	// are then consecutive runs of at most shuffleFrameRows of that list.
	rowParts := make([][][]types.Value, parts)
	groupParts := make([][]exec.Group, parts)
	if msg.Side == shuffleSideGroup {
		if res.Groups != nil {
			reply.Rows = len(res.Groups.M)
			for k, g := range res.Groups.M {
				pi := exec.KeyShufflePartition(k, parts)
				groupParts[pi] = append(groupParts[pi], *g)
			}
		}
	} else {
		reply.Rows = len(res.Rows)
		for _, row := range res.Rows {
			pi := exec.ShufflePartition(row, msg.Keys, parts)
			rowParts[pi] = append(rowParts[pi], row)
		}
	}
	for ri, reducer := range msg.Reducers {
		frames := make(map[int]int)
		for pi := 0; pi < parts; pi++ {
			if pi%len(msg.Reducers) != ri {
				continue
			}
			partBill := sim.NewBill()
			sctx := storage.WithBill(ctx, partBill)
			send := func(fr shuffleFrameMsg) error {
				fr.Exchange, fr.QueryID, fr.Side = msg.Exchange, msg.QueryID, msg.Side
				fr.Ordinal, fr.Attempt, fr.Partition = msg.Task.Ordinal, msg.Attempt, pi
				if _, err := l.Fabric.Call(sctx, l.Name, reducer, transport.Shuffle, fr, fr.Size); err != nil {
					return err
				}
				frames[pi]++
				reply.PartBytes[pi] += fr.Size
				return nil
			}
			groups, rows := groupParts[pi], rowParts[pi]
			for off := 0; off < len(groups); off += shuffleFrameRows {
				chunk := groups[off:min(off+shuffleFrameRows, len(groups))]
				if err := send(shuffleFrameMsg{Groups: chunk, Size: exec.EstimateGroups(chunk)}); err != nil {
					return reply, err
				}
			}
			for off := 0; off < len(rows); off += shuffleFrameRows {
				chunk := rows[off:min(off+shuffleFrameRows, len(rows))]
				size := (&exec.TaskResult{Rows: chunk}).EstimateBytes()
				if err := send(shuffleFrameMsg{Rows: chunk, Size: size}); err != nil {
					return reply, err
				}
			}
			reply.TransferSim[pi] += partBill.Time()
		}
		end := shuffleEndMsg{Exchange: msg.Exchange, QueryID: msg.QueryID, Side: msg.Side,
			Ordinal: msg.Task.Ordinal, Attempt: msg.Attempt, Frames: frames, Leaf: l.Name}
		if _, err := l.Fabric.Call(ctx, l.Name, reducer, transport.Shuffle, end, 64); err != nil {
			return reply, err
		}
	}
	return reply, nil
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
	ex := s.exchangeLocked(msg.Exchange)
	committed := func(side string, ords []int) (map[int]*stagedShuffle, error) {
		out := make(map[int]*stagedShuffle, len(ords))
		for _, ord := range ords {
			st := ex.committed[shuffleSideOrd{side, ord}]
			if st == nil {
				return nil, fmt.Errorf("cluster: shuffle %s: %s#%d never committed at %s", msg.Exchange, side, ord, s.Name)
			}
			out[ord] = st
		}
		return out, nil
	}
	probe, err := committed(shuffleSideProbe, msg.ProbeOrdinals)
	var build, group map[int]*stagedShuffle
	if err == nil {
		build, err = committed(shuffleSideBuild, msg.BuildOrdinals)
	}
	if err == nil {
		group, err = committed(shuffleSideGroup, msg.GroupOrdinals)
	}
	s.shuffleMu.Unlock()
	if err != nil {
		return nil, err
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
				st := group[ord]
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
				st := build[ord]
				inBytes += st.bytes[pi]
				if err := j.PushBuild(st.rows[pi]); err != nil {
					return nil, err
				}
			}
			for _, ord := range msg.ProbeOrdinals {
				st := probe[ord]
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

type shuffleMapTask struct {
	side string
	task plan.TaskSpec
}

type shuffleMapDone struct {
	ordinal     int
	side        string
	leaf        string
	retries     int
	err         error
	simTime     time.Duration
	transferSim map[int]time.Duration
	partBytes   map[int]int64
	devBytes    map[string]int64
}

// runShuffle executes a repartitioned query: map tasks on the leaves
// (placed and retried like ordinary tasks), keyed frames to the reducers,
// then one reduce per reducer. SimTime models the three phases as
// sequential: busiest map leaf + slowest reducer's inbound transfer +
// slowest reducer's reduce work.
func (m *Master) runShuffle(ctx context.Context, p *plan.PhysicalPlan, opts QueryOptions, stats *QueryStats, qid string, prog *progressHandle) (*exec.TaskResult, error) {
	sh := p.Shuffle
	exchange := qid + "/shuffle"
	reducers := m.Manager.AliveWorkers(KindStem) // sorted by name
	if len(reducers) == 0 {
		reducers = []string{m.cfg.Name}
	}
	parts := sh.Partitions
	if parts <= 0 {
		parts = 1
	}

	// Map tasks, with globally unique ordinals across sides (build side
	// first). TaskSpec.Key() ignores the ordinal, so renumbering is safe.
	var maps []shuffleMapTask
	addSide := func(side string, mp *plan.PhysicalPlan) {
		for _, t := range mp.Tasks() {
			t.Ordinal = len(maps)
			if m.cfg.ScanWorkers != 0 {
				w := m.cfg.ScanWorkers
				if w < 0 {
					w = 1
				}
				t.Workers = w
			}
			maps = append(maps, shuffleMapTask{side: side, task: t})
		}
	}
	if sh.GroupShuffle {
		addSide(shuffleSideGroup, p)
	} else {
		addSide(shuffleSideBuild, sh.BuildPlan)
		addSide(shuffleSideProbe, sh.ProbePlan)
	}
	stats.Tasks = len(maps)
	prog.update(func(qp *QueryProgress) {
		qp.TasksPlanned = len(maps)
		qp.TasksDispatched = len(maps)
	})

	// Best-effort cleanup on every exit path: reducers that ran no reduce
	// (or a failed query's staging) must not leak exchange state.
	defer func() {
		for _, r := range reducers {
			if r == m.cfg.Name {
				m.localStem.handleShuffleCleanup(shuffleCleanupMsg{Exchange: exchange})
				continue
			}
			m.cfg.Fabric.Call(context.WithoutCancel(ctx), m.cfg.Name, r, transport.Control,
				shuffleCleanupMsg{Exchange: exchange}, 64)
		}
	}()

	timeout := opts.TaskTimeout
	if timeout == 0 {
		timeout = m.cfg.DefaultTaskTimeout
	}

	specs := make([]plan.TaskSpec, len(maps))
	for i, mt := range maps {
		specs[i] = mt.task
	}
	assign, err := m.Scheduler.PlanAll(specs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrShuffleFailed, err)
	}
	heldSlots := make(map[int]string, len(assign))
	for ord, leaf := range assign {
		heldSlots[ord] = leaf
	}
	defer func() {
		for _, leaf := range heldSlots {
			m.Scheduler.ReleaseTask(leaf)
		}
	}()

	// Phase 1: map. Dispatch every map task concurrently; each failure is
	// retried on another leaf with the shared backoff/jitter policy.
	mctx, mspan := trace.StartSpan(ctx, "shuffle-map")
	results := make(chan shuffleMapDone, len(maps))
	msgBase := shuffleTaskMsg{QueryID: qid, Exchange: exchange, Partitions: parts, Keys: sh.Keys, Reducers: reducers}
	for _, mt := range maps {
		// First-attempt spans are created here, serially, so the trace
		// lists tasks in ordinal order regardless of goroutine scheduling
		// (EXPLAIN ANALYZE output stays deterministic).
		leaf := assign[mt.task.Ordinal]
		span0 := trace.FromContext(mctx).Child(fmt.Sprintf("task#%d @ %s", mt.task.Ordinal, leaf))
		go m.runShuffleMap(mctx, mt, leaf, msgBase, timeout, results, span0)
	}
	mapBusy := map[string]time.Duration{}
	transferSim := make([]time.Duration, parts)
	transferBytes := make([]int64, parts)
	devBytes := map[string]int64{}
	var firstErr error
	for range maps {
		d := <-results
		if leaf, ok := heldSlots[d.ordinal]; ok {
			m.Scheduler.ReleaseTask(leaf)
			delete(heldSlots, d.ordinal)
		}
		stats.BackupTasks += d.retries
		prog.update(func(qp *QueryProgress) {
			qp.TasksRetried += d.retries
			if d.err != nil {
				qp.TasksFailed++
			} else {
				qp.TasksDone++
			}
		})
		if d.err != nil {
			stats.TasksFailed++
			stats.TaskErrors = append(stats.TaskErrors, TaskError{Ordinal: d.ordinal, Leaf: d.leaf, Err: d.err.Error()})
			if firstErr == nil {
				firstErr = fmt.Errorf("map %s#%d on %s: %w", d.side, d.ordinal, d.leaf, d.err)
			}
			continue
		}
		mapBusy[d.leaf] += d.simTime
		for pi, dur := range d.transferSim {
			transferSim[pi] += dur
		}
		for pi, n := range d.partBytes {
			transferBytes[pi] += n
		}
		for dev, n := range d.devBytes {
			devBytes[dev] += n
		}
	}
	var mapBusiest time.Duration
	for _, dur := range mapBusy {
		if dur > mapBusiest {
			mapBusiest = dur
		}
	}
	mspan.SetSim(mapBusiest)
	mspan.Finish()
	if firstErr != nil {
		return nil, fmt.Errorf("%w: %v", ErrShuffleFailed, firstErr)
	}

	// Phase 2: transfer accounting. The frames already moved (inside the
	// map phase wall-clock), but the simulated transfer is modeled as its
	// own pipeline stage: the slowest reducer's total inbound transfer.
	_, tspan := trace.StartSpan(ctx, "shuffle-transfer")
	reducerIn := make(map[string]time.Duration, len(reducers))
	for pi := 0; pi < parts; pi++ {
		r := reducers[pi%len(reducers)]
		reducerIn[r] += transferSim[pi]
		ps := tspan.Child(fmt.Sprintf("partition %d -> %s", pi, r))
		ps.SetSim(transferSim[pi])
		ps.Count("bytes", transferBytes[pi])
		ps.Finish()
	}
	var transferMax time.Duration
	for _, dur := range reducerIn {
		if dur > transferMax {
			transferMax = dur
		}
	}
	tspan.SetSim(transferMax)
	tspan.Finish()

	// Phase 3: reduce, one request per reducer, concurrently.
	ordinalsOf := func(side string) []int {
		var out []int
		for _, mt := range maps {
			if mt.side == side {
				out = append(out, mt.task.Ordinal)
			}
		}
		return out
	}
	byReducer := make(map[string][]int, len(reducers))
	for pi := 0; pi < parts; pi++ {
		r := reducers[pi%len(reducers)]
		byReducer[r] = append(byReducer[r], pi)
	}
	rctx, rspan := trace.StartSpan(ctx, "shuffle-reduce")
	var (
		mu        sync.Mutex
		merged    *exec.TaskResult
		redErr    error
		reduceMax time.Duration
		wg        sync.WaitGroup
	)
	for r, owned := range byReducer {
		wg.Add(1)
		go func(r string, owned []int) {
			defer wg.Done()
			msg := shuffleReduceMsg{
				Exchange: exchange, QueryID: qid, Plan: p, Partitions: owned,
				ProbeOrdinals: ordinalsOf(shuffleSideProbe),
				BuildOrdinals: ordinalsOf(shuffleSideBuild),
				GroupOrdinals: ordinalsOf(shuffleSideGroup),
				SpillPrefix:   "/hdfs/feisu-shuffle/" + qid,
			}
			reply, err := m.callShuffleReduce(rctx, r, msg)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if redErr == nil {
					redErr = fmt.Errorf("reduce @ %s: %w", r, err)
				}
				return
			}
			var total time.Duration
			pis := make([]int, 0, len(reply.PartSim))
			for pi := range reply.PartSim {
				pis = append(pis, pi)
			}
			sort.Ints(pis)
			for _, pi := range pis {
				total += reply.PartSim[pi]
				ps := rspan.Child(fmt.Sprintf("partition %d @ %s", pi, r))
				ps.SetSim(reply.PartSim[pi])
				ps.Finish()
			}
			if total > reduceMax {
				reduceMax = total
			}
			stats.ShuffleSpillBytes += reply.SpillBytes
			for dev, n := range reply.DevBytes {
				devBytes[dev] += n
			}
			merged = exec.MergeResults(p, merged, reply.Result)
		}(r, owned)
	}
	wg.Wait()
	rspan.SetSim(reduceMax)
	rspan.Finish()
	if redErr != nil {
		return nil, fmt.Errorf("%w: %v", ErrShuffleFailed, redErr)
	}

	stats.ScanSimTime = mapBusiest
	stats.SimTime = mapBusiest + transferMax + reduceMax
	stats.BytesByDevice = devBytes
	if merged == nil {
		merged = &exec.TaskResult{}
	}
	return merged, nil
}

// runShuffleMap drives one map task to completion or permanent failure,
// re-placing it on another leaf between attempts.
func (m *Master) runShuffleMap(ctx context.Context, mt shuffleMapTask, leaf string, msgBase shuffleTaskMsg, timeout time.Duration, results chan<- shuffleMapDone, span0 *trace.Span) {
	d := shuffleMapDone{ordinal: mt.task.Ordinal, side: mt.side}
	msg := msgBase
	msg.Task = mt.task
	msg.Side = mt.side
	exclude := map[string]bool{}
	budget := m.cfg.MaxTaskRetries
	for attempt := 0; ; attempt++ {
		d.leaf = leaf
		msg.Attempt = attempt
		span := span0
		if attempt > 0 {
			span = nil
		}
		reply, err := m.callShuffleLeaf(ctx, leaf, msg, timeout, span)
		if err == nil {
			d.err = nil
			d.simTime = reply.SimTime
			d.transferSim = reply.TransferSim
			d.partBytes = reply.PartBytes
			d.devBytes = reply.DevBytes
			results <- d
			return
		}
		d.err = err
		if errors.Is(err, transport.ErrUnknownNode) {
			m.Manager.MarkSuspect(leaf)
			budget++ // nothing ran on a down leaf: not charged (see retryTask)
		}
		if attempt >= budget || ctx.Err() != nil {
			results <- d
			return
		}
		if m.cfg.RetryBackoff > 0 && !sleepCtx(ctx, retryDelay(m.cfg.RetryBackoff, mt.task.Key(), attempt)) {
			results <- d
			return
		}
		exclude[leaf] = true
		m.excludeUnhealthy(exclude)
		next, perr := m.Scheduler.Place(mt.task, exclude)
		if perr != nil {
			results <- d
			return
		}
		d.retries++
		m.Retries.Inc()
		m.cfg.Events.Emit(events.TaskSite(msg.QueryID, mt.task.Ordinal), events.ShuffleRetry,
			msg.QueryID, mt.task.Ordinal,
			fmt.Sprintf("side=%s attempt=%d %s -> %s: %v", mt.side, attempt+1, leaf, next, err))
		leaf = next
	}
}

// callShuffleLeaf runs one map attempt. span carries a pre-created task
// span (first attempts, for deterministic trace ordering); nil creates
// one here (retries).
func (m *Master) callShuffleLeaf(ctx context.Context, leaf string, msg shuffleTaskMsg, timeout time.Duration, span *trace.Span) (shuffleTaskReply, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if span == nil {
		ctx, span = trace.StartSpan(ctx, fmt.Sprintf("task#%d @ %s", msg.Task.Ordinal, leaf))
	} else {
		ctx = trace.NewContext(ctx, span)
	}
	defer span.Finish()
	raw, err := m.cfg.Fabric.Call(ctx, m.cfg.Name, leaf, transport.Control, msg, 256)
	if err != nil {
		return shuffleTaskReply{}, err
	}
	reply, ok := raw.(shuffleTaskReply)
	if !ok {
		return shuffleTaskReply{}, fmt.Errorf("cluster: unexpected shuffle map reply %T from %s", raw, leaf)
	}
	span.SetSim(reply.SimTime)
	return reply, nil
}

func (m *Master) callShuffleReduce(ctx context.Context, reducer string, msg shuffleReduceMsg) (shuffleReduceReply, error) {
	var (
		raw any
		err error
	)
	if reducer == m.cfg.Name {
		raw, err = m.localStem.handleShuffleReduce(ctx, msg)
	} else {
		raw, err = m.cfg.Fabric.Call(ctx, m.cfg.Name, reducer, transport.Control, msg, 512)
	}
	if err != nil {
		return shuffleReduceReply{}, err
	}
	reply, ok := raw.(shuffleReduceReply)
	if !ok {
		return shuffleReduceReply{}, fmt.Errorf("cluster: unexpected shuffle reduce reply %T from %s", raw, reducer)
	}
	return reply, nil
}
