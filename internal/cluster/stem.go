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
)

// StemServer is an internal node of the execution tree: it sends each leaf
// one batch of sub-plans per job, pulls the batch's results back in one reply
// and merges them bottom-up (paper §III-B). As a shuffle reducer it commits
// map output and runs the reduce.
type StemServer struct {
	Name   string
	Fabric transport.Network
	// Router backs the reducer's grace-hash spills; nil keeps them in memory.
	Router *storage.Router
	// Model prices batch replies into the sim time of the task that
	// carries each one, and the reducer's spills and reduce CPU.
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
	shuffles  map[string]map[shuffleSideOrd]*shuffleMsg
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
	// A traced job's spans hang under a holder its reply carries: stem/<name>,
	// or for map tasks the attempt spans themselves, which the master hangs
	// off its shuffle-map span (no stem ran them).
	var holder, span *trace.Span
	if job.Batch.Traced {
		holder = trace.New("")
		span = holder
		if job.Batch.Exchange == "" {
			span = holder.Child("stem/" + s.Name)
			defer span.Finish()
			span.Count("tasks", int64(len(job.Tasks)))
		}
	}
	s.tasks.Add(int64(len(job.Tasks)))
	// Job positions grouped by leaf, the leaves in the order they first
	// appear, and the attempt spans by job position. The spans are created
	// here, serially in job order, so a trace lists task#N by ordinal however
	// the leaves answer.
	n := len(job.Tasks)
	leaves, pos, ends := make([]string, 0, min(n, 8)), make([]int, 0, n), append(make([]int, 0, min(n, 8)+1), 0)
	for _, task := range job.Tasks {
		if leaf := job.Assign[task.Ordinal]; !slices.Contains(leaves, leaf) {
			leaves = append(leaves, leaf)
		}
	}
	for _, leaf := range leaves {
		for i, task := range job.Tasks {
			if job.Assign[task.Ordinal] == leaf {
				pos = append(pos, i)
			}
		}
		ends = append(ends, len(pos))
	}
	var spans []*trace.Span // nil untraced
	if span != nil {
		spans = make([]*trace.Span, n)
		for i, task := range job.Tasks {
			spans[i] = taskSpan(span, task.Ordinal, job.Assign[task.Ordinal])
		}
	}
	// Every batch writes its own slots; the fold below runs after wg.Wait.
	results := make([]*exec.TaskResult, n)
	status := make([]taskStatus, n)
	var wg sync.WaitGroup
	for b, leaf := range leaves {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.attempt(ctx, &job, leaf, pos[ends[b]:ends[b+1]], spans, results, status)
		}()
	}
	wg.Wait()
	// Fold in job order (ascending ordinal), never in arrival order: float
	// aggregates are not associative, so the order of the fold is part of
	// the answer. Past the first failed task nothing is folded — the
	// master's backup task has to land at that ordinal first.
	reply := stemReply{Status: status, Span: holder}
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

// taskSpan starts one attempt's span under parent; nil without a live trace
// (the name is rendered only for one).
func taskSpan(parent *trace.Span, ordinal int, leaf string) *trace.Span {
	if parent == nil {
		return nil
	}
	return parent.Child(fmt.Sprintf("task#%d @ %s", ordinal, leaf))
}

// attempt sends one leaf the job's tasks at positions pos as one batch, fills
// their results and statuses and adopts their replies' spans into their
// attempt spans (nil untraced), at the same positions: the one place tasks
// are sent to a leaf, scatter or map, first attempt or backup. The leaf times
// each task out; the call's bound of TaskTimeout per task fires only when the
// leaf never answers.
func (s *StemServer) attempt(ctx context.Context, job *stemJobMsg, leaf string, pos []int, spans []*trace.Span, results []*exec.TaskResult, status []taskStatus) {
	msg := job.Batch
	msg.Tasks = make([]plan.TaskSpec, len(pos))
	for j, p := range pos {
		msg.Tasks[j] = job.Tasks[p]
	}
	if msg.TaskTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(len(pos))*msg.TaskTimeout)
		defer cancel()
	}
	raw, err := s.Fabric.Call(ctx, s.Name, leaf, transport.Control, msg, 256*int64(len(pos)))
	reply, ok := raw.(batchReply)
	if err == nil && (!ok || len(reply.Tasks) != len(pos)) {
		err = fmt.Errorf("leaf %s: reply %T does not answer %d tasks", leaf, raw, len(pos))
	}
	last, size := -1, int64(0) // the job position of the highest-ordinal task with a result; the results' bytes
	for j, p := range pos {
		st := &status[p]
		if err != nil {
			st.Err, st.Unreachable = err.Error(), errors.Is(err, transport.ErrUnknownNode)
		} else if *st = reply.Tasks[j].Status; st.Err == "" {
			// The leaf's status carries its execution-only bill.
			st.OK, st.ScanSim = true, st.SimTime
			if res := reply.Tasks[j].Result; res != nil { // a map task's rows went sideways
				results[p], st.Rows = res, len(res.Rows)
				last, size = p, size+reply.Tasks[j].Size
			}
		}
		if err == nil && spans != nil {
			spans[p].Adopt(reply.Tasks[j].Span)
		}
		st.Leaf = leaf
	}
	if last >= 0 {
		s.billReply(leaf, size, spans, last, &status[last])
	}
	if spans == nil {
		return
	}
	for _, p := range pos {
		// A task span's sim time is the task's full response time: leaf
		// execution, plus the reply transfer on the task that carries it.
		if status[p].OK {
			spans[p].SetSim(status[p].SimTime)
		}
		spans[p].Finish()
	}
}

// billReply charges a batch reply's way up the tree — one read-flow message
// of size bytes — to st, the batch's highest-ordinal task with a result
// (at job position p), so the charge does not depend on the order the leaf
// ran the tasks in.
func (s *StemServer) billReply(leaf string, size int64, spans []*trace.Span, p int, st *taskStatus) {
	s.Fabric.Counters().Msgs[transport.Read].Inc()
	s.Fabric.Counters().Bytes[transport.Read].Add(size)
	hops := s.Fabric.Topology().Hops(leaf, s.Name)
	if s.Model == nil || hops == 0 {
		return
	}
	cost := s.Model.TransferCost(size, hops)
	st.SimTime += cost
	if spans != nil {
		sp := spans[p].Child("reply-transfer")
		sp.SetSim(cost)
		sp.Count("bytes", size)
		sp.Finish()
	}
}

// LoadSnapshot assembles the stem's current load.
func (s *StemServer) LoadSnapshot() LoadSnapshot {
	return LoadSnapshot{ActiveTasks: int(s.active.Load()), TasksDone: s.tasks.Load()}
}

// HeartbeatOnce sends one heartbeat to the master.
func (s *StemServer) HeartbeatOnce(ctx context.Context, master string) error {
	_, err := s.Fabric.Call(ctx, s.Name, master, transport.Control,
		heartbeatMsg{Name: s.Name, Kind: KindStem, Load: s.LoadSnapshot()}, 64)
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
