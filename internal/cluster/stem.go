package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	"repro/internal/types"
)

// StemServer is an internal node of the execution tree: it sends each leaf
// one batch of sub-plans per job, pulls results (reading spilled payloads
// from global storage when needed) and merges them bottom-up (paper §III-B).
type StemServer struct {
	Name   string
	Fabric transport.Network
	// Router reads spilled results.
	Router *storage.Router
	// Model prices reply transfers into per-task sim times.
	Model *sim.CostModel
	// Events, when set, journals the reducer's shuffle commits and reduces
	// into the flight recorder.
	Events *events.Recorder

	active atomic.Int32
	tasks  atomic.Int64 // lifetime dispatched tasks
	life   lifecycle

	// shuffleMu guards shuffles, the reducer-side commits of repartition
	// exchanges (keyed by exchange ID).
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
	case stemJobMsg:
		return s.runJob(ctx, msg)
	case shuffleMsg:
		return s.handleShuffle(from, msg)
	case shuffleReduceMsg:
		return s.handleShuffleReduce(ctx, msg)
	case shuffleCleanupMsg:
		return s.handleShuffleCleanup(msg)
	default:
		return nil, fmt.Errorf("cluster: stem %s: unknown message %T", s.Name, payload)
	}
}

// runJob sends each assigned leaf one batch, its tasks of the job in
// ascending ordinal, and folds what comes back. Failed or timed-out tasks are
// reported per ordinal; the master's scheduler issues backup tasks for them.
func (s *StemServer) runJob(ctx context.Context, job stemJobMsg) (any, error) {
	s.active.Add(int32(len(job.Tasks)))
	defer s.active.Add(-int32(len(job.Tasks)))
	var span *trace.Span
	if job.Batch.Exchange == "" { // map tasks hang off the master's shuffle-map span: no stem ran them
		ctx, span = trace.StartSpan(ctx, "stem/"+s.Name)
		defer span.Finish()
		span.Count("tasks", int64(len(job.Tasks)))
	}
	s.tasks.Add(int64(len(job.Tasks)))
	// Job positions and attempt spans by leaf. The spans are created here,
	// serially in job order, so a trace lists task#N by ordinal however the
	// leaves answer.
	leaves, batches, spans := []string(nil), [][]int(nil), [][]*trace.Span(nil)
	for i, task := range job.Tasks {
		leaf := job.Assign[task.Ordinal]
		b := slices.Index(leaves, leaf)
		if b < 0 {
			b, leaves, batches, spans = len(leaves), append(leaves, leaf), append(batches, nil), append(spans, nil)
		}
		batches[b] = append(batches[b], i)
		if sp := taskSpan(ctx, task.Ordinal, leaf); sp != nil {
			spans[b] = append(spans[b], sp)
		}
	}
	// Every batch writes its own slots; the fold below runs after wg.Wait.
	results := make([]*exec.TaskResult, len(job.Tasks))
	status := make([]taskStatus, len(job.Tasks))
	var wg sync.WaitGroup
	for b, leaf := range leaves {
		wg.Add(1)
		go func(pos []int) {
			defer wg.Done()
			s.attempt(ctx, &job, leaf, pos, spans[b], results, status)
		}(batches[b])
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
			continue
		case !failed:
			reply.Merged = exec.MergeResults(job.Plan, reply.Merged, results[i])
		default:
			if reply.Tail == nil {
				reply.Tail = make(map[int]*exec.TaskResult)
			}
			reply.Tail[job.Tasks[i].Ordinal] = results[i]
		}
		busiest = max(busiest, st.SimTime)
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

// taskSpansKey carries a batch's attempt spans to the leaf in the call's
// context, so each task's work hangs under its own span.
type taskSpansKey struct{}

// attempt sends one leaf the job's tasks at positions pos, with their attempt
// spans (nil untraced), as one batch and fills their results and statuses at
// the same positions: the one place tasks are sent to a leaf, scatter or map,
// first attempt or backup. The leaf times each task out; the call's bound of
// TaskTimeout per task fires only when the leaf never answers.
func (s *StemServer) attempt(ctx context.Context, job *stemJobMsg, leaf string, pos []int, spans []*trace.Span, results []*exec.TaskResult, status []taskStatus) {
	msg := job.Batch
	msg.Tasks = make([]plan.TaskSpec, len(pos))
	for j, p := range pos {
		msg.Tasks[j] = job.Tasks[p]
	}
	cctx := ctx
	if spans != nil {
		cctx = context.WithValue(ctx, taskSpansKey{}, spans)
	}
	if msg.TaskTimeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(cctx, time.Duration(len(pos))*msg.TaskTimeout)
		defer cancel()
	}
	raw, err := s.Fabric.Call(cctx, s.Name, leaf, transport.Control, msg, 256*int64(len(pos)))
	reply, ok := raw.(batchReply)
	if err == nil && (!ok || len(reply.Tasks) != len(pos)) {
		err = fmt.Errorf("leaf %s: reply %T does not answer %d tasks", leaf, raw, len(pos))
	}
	for j, p := range pos {
		var sp *trace.Span
		if spans != nil {
			sp = spans[j]
		}
		if err != nil {
			status[p].Err, status[p].Unreachable = err.Error(), errors.Is(err, transport.ErrUnknownNode)
		} else if status[p] = reply.Tasks[j].Status; status[p].Err == "" {
			results[p] = s.collect(ctx, leaf, reply.Tasks[j], sp, &status[p])
		}
		status[p].Leaf = leaf
		sp.Finish()
	}
}

// collect turns one task's reply into its result, fetching a spilled one
// back, and bills the reply's way up into the task's simulated time.
func (s *StemServer) collect(ctx context.Context, leaf string, reply taskReply, span *trace.Span, st *taskStatus) *exec.TaskResult {
	// The leaf's reply carries its execution-only bill; spill-fetch and
	// reply-transfer costs accrue on top of it below.
	st.ScanSim = st.SimTime
	res := reply.Result
	if reply.SpillPath != "" {
		bill := sim.NewBill()
		data, err := s.Router.ReadFile(storage.WithBill(ctx, bill), reply.SpillPath)
		if err != nil {
			st.Err = fmt.Sprintf("fetch spill %s: %v", reply.SpillPath, err)
			return nil
		}
		if res, err = types.ReadAll(data, exec.ReadResult); err != nil {
			st.Err = fmt.Sprintf("decode spill %s: %v", reply.SpillPath, err)
			return nil
		}
		st.SimTime += bill.Time()
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
				st.SimTime += cost
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
	span.SetSim(st.SimTime)
	st.OK = true
	return res
}

// LoadSnapshot assembles the stem's current load.
func (s *StemServer) LoadSnapshot() LoadSnapshot {
	return LoadSnapshot{ActiveTasks: int(s.active.Load()), TasksDone: s.tasks.Load()}
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
