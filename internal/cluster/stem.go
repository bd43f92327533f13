package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/transport"
)

// StemServer is an internal node of the execution tree: it dispatches
// sub-plans to leaves, pulls results (reading spilled payloads from global
// storage when needed) and merges them bottom-up (paper §III-B).
type StemServer struct {
	Name   string
	Fabric transport.Network
	// Router reads spilled results.
	Router *storage.Router
	// Model prices reply transfers into per-task sim times.
	Model *sim.CostModel
	// Parallelism bounds concurrent leaf calls; <=0 means one per task.
	Parallelism int
	// Events, when set, journals task dispatch and hedge decisions into the
	// flight recorder.
	Events *events.Recorder

	active atomic.Int32
	queued atomic.Int32 // tasks admitted but waiting for a parallelism slot
	tasks  atomic.Int64 // lifetime dispatched tasks
	life   lifecycle

	// shuffleMu guards shuffles, the reducer-side staging area for
	// repartition exchanges (keyed by exchange ID).
	shuffleMu sync.Mutex
	shuffles  map[string]*shuffleExchange
}

// Register attaches the stem to the fabric.
func (s *StemServer) Register() {
	s.Fabric.Register(s.Name, s.handle)
}

func (s *StemServer) handle(ctx context.Context, from string, payload any) (any, error) {
	switch msg := payload.(type) {
	case pingMsg:
		return pingReply{Kind: KindStem, ActiveTasks: int(s.active.Load())}, nil
	case wireStemJob:
		return s.runJob(ctx, msg.job())
	case stemJobMsg: // the master to its own local stem: nothing crossed a wire
		return s.runJob(ctx, msg)
	case shuffleFrameMsg:
		return s.handleShuffleFrame(msg)
	case shuffleEndMsg:
		return s.handleShuffleEnd(msg)
	case shuffleReduceMsg:
		return s.handleShuffleReduce(ctx, msg)
	case shuffleCleanupMsg:
		return s.handleShuffleCleanup(msg)
	default:
		return nil, fmt.Errorf("cluster: stem %s: unknown message %T", s.Name, payload)
	}
}

// runJob fans the tasks out to their assigned leaves and folds what comes
// back. Failed or timed-out tasks are reported per ordinal; the master's
// scheduler issues backup tasks for them.
func (s *StemServer) runJob(ctx context.Context, job stemJobMsg) (any, error) {
	s.active.Add(int32(len(job.Tasks)))
	defer s.active.Add(-int32(len(job.Tasks)))
	var span *trace.Span
	if job.Route == nil { // map tasks hang off the master's shuffle-map span: no stem ran them
		ctx, span = trace.StartSpan(ctx, "stem/"+s.Name)
		defer span.Finish()
		span.Count("tasks", int64(len(job.Tasks)))
	}

	par := s.Parallelism
	if par <= 0 || par > len(job.Tasks) {
		par = len(job.Tasks)
	}
	if par == 0 {
		return stemReply{}, nil
	}
	sem := make(chan struct{}, par)
	// Per-leaf slot bounding: the stem-side half of the scheduler's slot
	// accounting. Each leaf gets its own semaphore so a deep backlog on one
	// leaf throttles only that leaf's tasks; the slot is taken inside the
	// task goroutine, so a saturated leaf never head-of-line-blocks dispatch
	// to its siblings. Hedged backups bypass it (speculative duplicates are
	// rare and latency-critical).
	var leafSem map[string]chan struct{}
	if job.LeafSlots > 0 {
		leafSem = make(map[string]chan struct{})
		for _, task := range job.Tasks {
			if l := job.Assign[task.Ordinal]; leafSem[l] == nil {
				leafSem[l] = make(chan struct{}, job.LeafSlots)
			}
		}
	}
	// Every task writes its own slot; the fold below runs after wg.Wait.
	results := make([]*exec.TaskResult, len(job.Tasks))
	status := make([]taskStatus, len(job.Tasks))
	var wg sync.WaitGroup
	for i, task := range job.Tasks {
		leaf := job.Assign[task.Ordinal]
		wg.Add(1)
		s.queued.Add(1)
		sem <- struct{}{}
		s.queued.Add(-1)
		s.tasks.Add(1)
		// First-attempt spans are created here, serially in job order, so a
		// trace lists task#N by ordinal however the goroutines get scheduled.
		tspan := taskSpan(ctx, task.Ordinal, leaf)
		go func(i int, task plan.TaskSpec, leaf string) {
			defer wg.Done()
			defer func() { <-sem }()
			if ls := leafSem[leaf]; ls != nil {
				s.queued.Add(1)
				ls <- struct{}{}
				s.queued.Add(-1)
				defer func() { <-ls }()
			}
			if job.QueryID != "" && s.Events.Enabled() {
				s.Events.Emit(events.TaskSite(job.QueryID, task.Ordinal), events.TaskDispatched,
					job.QueryID, task.Ordinal, leaf+" via "+s.Name)
			}
			results[i], status[i] = s.runOne(ctx, &job, task, leaf, tspan)
		}(i, task, leaf)
	}
	wg.Wait()
	// Fold in job order (ascending ordinal), never in arrival order: float
	// aggregates are not associative, so the order of the fold is part of
	// the answer. Past the first failed task nothing is folded — the
	// master's backup task has to land at that ordinal first.
	reply := stemReply{Status: status}
	// The stem's simulated time is its critical path: the slowest task it
	// waited on (tasks run in parallel under the cost model).
	var busiest time.Duration
	failed := false
	for i, st := range status {
		switch {
		case !st.OK:
			failed = true
		case !failed:
			reply.Merged = exec.MergeResults(job.Plan, reply.Merged, results[i])
		default:
			if reply.Tail == nil {
				reply.Tail = make(map[int]*exec.TaskResult)
			}
			reply.Tail[job.Tasks[i].Ordinal] = results[i]
		}
		if st.OK {
			busiest = max(busiest, st.SimTime)
		}
	}
	span.SetSim(busiest)
	return reply, nil
}

// taskSpan starts one attempt's span under the context's span; nil without a
// live trace (the name is rendered only for one).
func taskSpan(ctx context.Context, ordinal int, leaf string) *trace.Span {
	parent := trace.FromContext(ctx)
	if parent == nil {
		return nil
	}
	return parent.Child(fmt.Sprintf("task#%d @ %s", ordinal, leaf))
}

// runOne executes one task, hedging a speculative duplicate on the job's
// backup leaf when the scheduler flagged the primary's placement as a
// straggler: the backup fires after HedgeDelay (or immediately if the
// primary fails first) and the first successful attempt wins; the loser's
// context is cancelled. span is the primary attempt's (taskSpan).
func (s *StemServer) runOne(ctx context.Context, job *stemJobMsg, task plan.TaskSpec, leaf string, span *trace.Span) (*exec.TaskResult, taskStatus) {
	start := time.Now()
	backup, hedgeable := job.Backup[task.Ordinal]
	if !hedgeable || backup == leaf || job.HedgeDelay <= 0 {
		res, st := s.attempt(ctx, job, task, leaf, span)
		st.Wall = time.Since(start)
		return res, st
	}
	type outcome struct {
		res    *exec.TaskResult
		st     taskStatus
		backup bool
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan outcome, 2) // buffered: the abandoned loser must not block
	launch := func(on string, span *trace.Span, isBackup bool) {
		go func() {
			res, st := s.attempt(hctx, job, task, on, span)
			results <- outcome{res, st, isBackup}
		}()
	}
	launch(leaf, span, false)
	hedge := time.NewTimer(job.HedgeDelay)
	defer hedge.Stop()
	fire := func() {
		s.tasks.Add(1)
		if job.QueryID != "" {
			s.Events.Emit(events.TaskSite(job.QueryID, task.Ordinal), events.TaskHedge,
				job.QueryID, task.Ordinal, "backup on "+backup)
		}
		launch(backup, taskSpan(ctx, task.Ordinal, backup), true)
	}
	inflight, fired := 1, false
	var lastFail outcome
	for inflight > 0 {
		select {
		case <-hedge.C:
			if !fired {
				fired = true
				inflight++
				fire()
			}
		case out := <-results:
			inflight--
			if out.st.OK {
				cancel() // first result wins
				out.st.Hedged = fired
				out.st.HedgeWon = out.backup
				out.st.Wall = time.Since(start)
				if out.backup && job.QueryID != "" {
					s.Events.Emit(events.TaskSite(job.QueryID, task.Ordinal), events.TaskHedgeWon,
						job.QueryID, task.Ordinal, "backup "+out.st.Leaf+" beat primary "+leaf)
				}
				return out.res, out.st
			}
			lastFail = out
			if !fired {
				// The primary failed before the hedge delay elapsed; fire
				// the backup now instead of waiting out the timer.
				fired = true
				inflight++
				fire()
			}
		}
	}
	lastFail.st.Hedged = fired
	lastFail.st.Wall = time.Since(start)
	return lastFail.res, lastFail.st
}

// attempt executes a single task on one leaf with the per-task timeout — the
// one place a task is sent to a leaf, scatter or map, first attempt, hedge or
// backup.
func (s *StemServer) attempt(ctx context.Context, job *stemJobMsg, task plan.TaskSpec, leaf string, span *trace.Span) (*exec.TaskResult, taskStatus) {
	st := taskStatus{Leaf: leaf}
	tctx := trace.NewContext(ctx, span)
	defer span.Finish()
	if job.TaskTimeout > 0 {
		var cancel context.CancelFunc
		tctx, cancel = context.WithTimeout(tctx, job.TaskTimeout)
		defer cancel()
	}
	msg := taskMsg{Task: task, QueryID: job.QueryID}
	if job.Route != nil { // a map task: its side, and this attempt's staging key
		msg = *job.Route
		msg.Task, msg.Side, msg.Attempt = task, job.Sides[task.Ordinal], job.Attempt
	}
	raw, err := s.Fabric.Call(tctx, s.Name, leaf, transport.Control, msg, 256)
	if err != nil {
		st.Err = err.Error()
		st.Unreachable = errors.Is(err, transport.ErrUnknownNode)
		return nil, st
	}
	reply, ok := raw.(taskReply)
	if !ok {
		st.Err = fmt.Sprintf("unexpected reply %T", raw)
		return nil, st
	}
	// The leaf's reply carries its execution-only bill; spill-fetch and
	// reply-transfer costs accrue on top of it below.
	st.ScanSim = reply.SimTime
	res := reply.Result
	if reply.SpillPath != "" {
		bill := sim.NewBill()
		data, err := s.Router.ReadFile(storage.WithBill(ctx, bill), reply.SpillPath)
		if err != nil {
			st.Err = fmt.Sprintf("fetch spill %s: %v", reply.SpillPath, err)
			return nil, st
		}
		res, err = decodeResult(data)
		if err != nil {
			st.Err = err.Error()
			return nil, st
		}
		reply.SimTime += bill.Time()
		sp := span.Child("spill-fetch")
		sp.SetSim(bill.Time())
		sp.Count("bytes", int64(len(data)))
		sp.Finish()
	}
	// The result rides the read flow back up the tree; charge its transfer
	// into the task's simulated time. A map task's reply carries none: its
	// rows went sideways, billed per partition by the leaf.
	if res != nil {
		s.Fabric.Counters().Msgs[transport.Read].Inc()
		s.Fabric.Counters().Bytes[transport.Read].Add(reply.Size)
		if s.Model != nil {
			if hops := s.Fabric.Topology().Hops(leaf, s.Name); hops > 0 {
				cost := s.Model.TransferCost(reply.Size, hops)
				reply.SimTime += cost
				sp := span.Child("reply-transfer")
				sp.SetSim(cost)
				sp.Count("bytes", reply.Size)
				sp.Finish()
			}
		}
		st.Rows = len(res.Rows)
	}
	// The task span's sim time is the full task response time: leaf
	// execution plus spill fetch plus reply transfer.
	span.SetSim(reply.SimTime)
	st.OK = true
	st.SimTime = reply.SimTime
	st.DevBytes = reply.DevBytes
	st.TransferSim, st.PartBytes = reply.TransferSim, reply.PartBytes
	return res, st
}

// LoadSnapshot assembles the stem's current load.
func (s *StemServer) LoadSnapshot() LoadSnapshot {
	return LoadSnapshot{
		ActiveTasks: int(s.active.Load()),
		QueueDepth:  int(s.queued.Load()),
		TasksDone:   s.tasks.Load(),
	}
}

// HeartbeatOnce sends one heartbeat to the master.
func (s *StemServer) HeartbeatOnce(ctx context.Context, master string) error {
	load := s.LoadSnapshot()
	_, err := s.Fabric.Call(ctx, s.Name, master, transport.Control,
		heartbeatMsg{Name: s.Name, Kind: KindStem, Active: load.ActiveTasks, Load: load}, 64)
	return err
}

// Start launches the heartbeat loop. Both Start and Stop are safe to call
// concurrently; a second Start while running is a no-op.
func (s *StemServer) Start(master string, interval time.Duration) {
	s.life.start(func(stop <-chan struct{}) {
		heartbeatLoop(stop, interval, func() {
			_ = s.HeartbeatOnce(context.Background(), master)
		})
	})
}

// Stop ends the heartbeat loop; extra or concurrent Stops are no-ops.
func (s *StemServer) Stop() {
	s.life.halt()
}
