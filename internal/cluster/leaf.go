package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/transport"
)

// LeafServer executes sub-plans against the storage it sits next to (paper
// §III-B: "each storage node ... acts as a leaf server in Feisu"). It owns
// the node's SmartIndex (or B-tree baseline), its SSD-cache-wrapped reader,
// and reports load through heartbeats.
type LeafServer struct {
	Name   string
	Fabric transport.Network
	Reader exec.PartitionReader
	// Index is the node's SmartIndex / B-tree; nil disables indexing.
	Index exec.IndexSource
	// Router resolves data locality: which nodes hold a partition's
	// replicas. nil disables the remote-read penalty.
	Router *storage.Router
	// Model prices remote reads and the shuffle messages the leaf sends;
	// nil disables both bills.
	Model *sim.CostModel
	// Events, when set, journals task executions into the flight recorder,
	// on the leaf's own site "leaf/<Name>", which seq numbers.
	Events *events.Recorder
	seq    atomic.Uint64

	// stall is a per-task pause in nanoseconds (straggler fault injection),
	// atomic because the chaos controller flips it while tasks run.
	stall   atomic.Int64
	active  atomic.Int32
	queued  atomic.Int32 // tasks received in a batch and not yet started
	batches atomic.Int64 // batches run in alternating order (runBatch)
	life    lifecycle

	// Tasks counts sub-plans executed; Skipped, those a LIMIT batch
	// answered without running (runBatch).
	Tasks, Skipped metrics.Counter
}

// RegisterMetrics publishes the leaf's counters into a central registry
// under the given name prefix (e.g. "leaf0.").
func (l *LeafServer) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.Register(prefix+"tasks", &l.Tasks)
	reg.Register(prefix+"tasks_skipped", &l.Skipped)
}

// Register attaches the leaf to the fabric.
func (l *LeafServer) Register() {
	l.Fabric.Register(l.Name, l.handle)
}

// SetStall sets the per-task pause (0 clears it) — the straggler knob the
// chaos controller drives concurrently with task execution.
func (l *LeafServer) SetStall(d time.Duration) {
	l.stall.Store(int64(d))
}

// Stall returns the current per-task pause.
func (l *LeafServer) Stall() time.Duration {
	return time.Duration(l.stall.Load())
}

// handle dispatches incoming messages.
func (l *LeafServer) handle(ctx context.Context, from string, payload any) (any, error) {
	switch msg := payload.(type) {
	case pingMsg:
		return pingReply{Kind: KindLeaf, ActiveTasks: int(l.active.Load())}, nil
	case taskBatch:
		return l.runBatch(ctx, &msg), nil
	default:
		return nil, fmt.Errorf("cluster: leaf %s: unknown message %T", l.Name, payload)
	}
}

// runBatch executes a batch's tasks one after another on the caller's
// goroutine, each scanning its blocks in order; a leaf's parallelism is the
// batches it serves at once. Each plan of the batch is bound once, on its
// first task; a task then brings only its partition. A failed task is
// reported in its own slot; the rest of the batch still runs. A traced batch
// gives each task a holder span that its reply carries.
//
// A scatter batch under a pushed-down LIMIT L runs in ascending ordinal and
// hands each task only the rows still missing: L less the rows the tasks
// before it returned. Once the batch holds L rows, the rest of it is answered
// "OK, no rows" without running. The stem and the master fold in ascending
// ordinal and keep the first L rows, and a row of this batch that lands in
// them has fewer than L rows of the batch's lower ordinals ahead of it: the
// batch's own first L rows hold every row the answer can use. A failed task's
// rows are unknown until its backup lands, so after one the rest run with the
// full L.
//
// Every other batch runs back to front: statements that read the same
// partitions in one fixed order are the column cache's LRU worst case (each
// chunk evicted just before it is read again). A LIMIT batch never does,
// because its count of rows is only a prefix in ascending ordinal.
func (l *LeafServer) runBatch(ctx context.Context, b *taskBatch) batchReply {
	reply := batchReply{Tasks: make([]taskReply, len(b.Tasks))}
	l.queued.Add(int32(len(b.Tasks)))
	limit := int64(-1)
	if b.Exchange == "" && len(b.Tasks) > 0 {
		limit = b.Tasks[0].Plan.ScanLimit
	}
	first, step := 0, 1
	if limit < 0 && l.batches.Add(1)%2 == 0 {
		first, step = len(b.Tasks)-1, -1
	}
	counting, have := limit >= 0, int64(0)
	var bound []boundPlan
	for i := first; 0 <= i && i < len(b.Tasks); i += step {
		l.queued.Add(-1)
		task := b.Tasks[i]
		if b.Traced {
			reply.Tasks[i].Span = trace.New("")
		}
		if counting && have >= limit {
			l.Skipped.Inc()
			reply.Tasks[i].Span.Count("limit.skipped", 1)
			continue
		}
		scan, err := l.bindOnce(&bound, task.Plan)
		if counting && have > 0 {
			p := *task.Plan
			p.ScanLimit, task.Plan = limit-have, &p
		}
		if err == nil {
			err = l.runTask(ctx, b, task, scan, &reply.Tasks[i])
		}
		if err != nil {
			reply.Tasks[i].Status = taskStatus{Err: err.Error()}
			counting = false
		} else if counting {
			have += int64(len(reply.Tasks[i].Result.Rows))
		}
	}
	return reply
}

// boundPlan is a plan of a batch bound for its tasks (exec.Bind): a batch
// carries one scatter plan, or a repartition join's two sides. A plan that
// fails to bind fails each of its tasks with the same error.
type boundPlan struct {
	plan *plan.PhysicalPlan
	scan *exec.Scanner
	err  error
}

// bindOnce returns p bound, binding it on its first task in the batch.
func (l *LeafServer) bindOnce(bound *[]boundPlan, p *plan.PhysicalPlan) (*exec.Scanner, error) {
	for _, b := range *bound {
		if b.plan == p {
			return b.scan, b.err
		}
	}
	scan, err := exec.Bind(p, l.Reader, l.Index, l.Model)
	*bound = append(*bound, boundPlan{p, scan, err})
	return scan, err
}

// runTask executes task on its bound plan into reply under its TaskTimeout
// and, traced, under reply.Span, billing simulated I/O to a private bill. A
// scatter task returns its result; a map task ships it to the reducers and
// returns the transfer accounting.
func (l *LeafServer) runTask(ctx context.Context, b *taskBatch, task plan.TaskSpec, scan *exec.Scanner, reply *taskReply) error {
	l.active.Add(1)
	defer l.active.Add(-1)
	l.Tasks.Inc()
	if b.TaskTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, b.TaskTimeout)
		defer cancel()
	}
	var span *trace.Span
	if reply.Span != nil { // the name is rendered only for a live trace
		span = reply.Span.Child("leaf/" + l.Name)
		defer span.Finish()
		span.SetAttr("partition", task.Partition.Path)
		ctx = trace.NewContext(ctx, span)
	}
	if !sleepCtx(ctx, l.Stall()) {
		return ctx.Err()
	}
	bill := sim.NewBill()
	res, err := scan.Run(storage.WithBill(ctx, bill), task)
	if err != nil {
		return err
	}
	l.chargeRemoteRead(ctx, bill, task.Partition.Path)
	// The leaf span's sim time is the task's full simulated cost; the
	// read:*/transfer children decompose it per device class.
	span.SetSim(bill.Time())
	billSpans(span, bill)
	reply.Status.SimTime, reply.Status.DevBytes = bill.Time(), bill.DeviceBytes()
	journal := b.QueryID != "" && l.Events.Enabled()
	if b.Exchange != "" {
		rows, err := l.routeShuffle(ctx, b, task.Ordinal, b.Sides[task.Ordinal], res, &reply.Status)
		if err != nil {
			return err
		}
		if journal {
			l.Events.EmitSim("leaf/"+l.Name, l.seq.Add(1), events.ShuffleMap, b.QueryID, task.Ordinal, bill.Time(),
				fmt.Sprintf("%s side=%s attempt=%d rows=%d", l.Name, b.Sides[task.Ordinal], b.Attempt, rows))
		}
		return nil
	}
	if journal && b.Attempt > 0 { // a first attempt is summed up by task.done
		l.Events.EmitSim("leaf/"+l.Name, l.seq.Add(1), events.LeafExec, b.QueryID, task.Ordinal, bill.Time(),
			l.Name+" "+task.Partition.Path)
	}
	reply.Result, reply.Size = res, res.EstimateBytes()
	return nil
}

// chargeRemoteRead models the network cost of scheduling a task away from
// its data: when this leaf holds no replica of the partition, the bytes it
// read from the holder's store crossed the network from the nearest holder
// (the overhead the paper's locality-aware scheduler avoids, §III-B). Only
// bytes that actually came off the data holder's devices move: HDD and
// cold-archive reads always do, and SSD reads only when the partition
// itself lives on SSD (an SSD *cache* hit or an in-memory SmartIndex lookup
// is served from this leaf's local hardware and moves nothing).
func (l *LeafServer) chargeRemoteRead(ctx context.Context, bill *sim.Bill, path string) {
	if l.Router == nil || l.Model == nil {
		return
	}
	moved := bill.Bytes(sim.DeviceHDD) + bill.Bytes(sim.DeviceCold)
	if l.Router.Device(path) == sim.DeviceSSD {
		moved += bill.Bytes(sim.DeviceSSD)
	}
	if moved == 0 {
		return
	}
	hops := 1 << 30
	topo := l.Fabric.Topology()
	for _, h := range l.Router.Locations(path) {
		if h == l.Name {
			return // local read
		}
		hops = min(hops, topo.Hops(l.Name, h))
	}
	if hops > 0 && hops < 1<<30 {
		trace.FromContext(ctx).Count("remote.bytes", moved)
		bill.ChargeTransfer(l.Model, moved, hops)
	}
}

// billSpans decomposes a task bill into read:<device> / transfer child
// spans so the trace shows where the simulated time went.
func billSpans(span *trace.Span, bill *sim.Bill) {
	if span == nil {
		return
	}
	for _, d := range []sim.DeviceClass{sim.DeviceHDD, sim.DeviceSSD, sim.DeviceMemory, sim.DeviceCold} {
		if n := bill.Bytes(d); n > 0 {
			c := span.Child("read:" + d.String())
			c.SetSim(bill.TimeOf(d))
			c.Count("bytes", n)
			c.Finish()
		}
	}
	if t := bill.TransferTime(); t > 0 {
		c := span.Child("transfer")
		c.SetSim(t)
		c.Count("bytes", bill.Bytes(sim.DeviceNetwork))
		c.Finish()
	}
}

// LoadSnapshot assembles the leaf's current load: task pressure plus the
// index and cache gauges, discovered through the reporter interfaces so the
// index/cache packages stay ignorant of the cluster layer.
func (l *LeafServer) LoadSnapshot() LoadSnapshot {
	s := LoadSnapshot{ActiveTasks: int(l.active.Load()), QueueDepth: int(l.queued.Load()), TasksDone: l.Tasks.Value()}
	if rep, ok := l.Index.(IndexLoadReporter); ok && rep != nil {
		s.IndexEntries, s.IndexBytes, s.IndexBudget = rep.IndexLoad()
	}
	if rep, ok := l.Reader.(CacheLoadReporter); ok && rep != nil {
		s.CacheHits, s.CacheMisses, s.CacheEvictions, s.CacheBytes, s.CacheCapacity = rep.CacheLoad()
	}
	return s
}

// HeartbeatOnce sends one heartbeat to the master.
func (l *LeafServer) HeartbeatOnce(ctx context.Context, master string) error {
	_, err := l.Fabric.Call(ctx, l.Name, master, transport.Control,
		heartbeatMsg{Name: l.Name, Kind: KindLeaf, Load: l.LoadSnapshot()}, 64)
	return err
}

// Start launches the heartbeat loop; Stop ends it. Both are safe to call
// concurrently; a second Start while running is a no-op.
func (l *LeafServer) Start(master string, interval time.Duration) {
	l.life.start(func(stop <-chan struct{}) {
		heartbeatLoop(stop, interval, func() {
			_ = l.HeartbeatOnce(context.Background(), master)
		})
	})
}

// Stop ends the heartbeat loop; extra or concurrent Stops are no-ops.
func (l *LeafServer) Stop() {
	l.life.halt()
}

// heartbeatMsg reports liveness and load to the master's cluster manager.
type heartbeatMsg struct {
	Name string
	Kind WorkerKind
	Load LoadSnapshot
}

func heartbeatLoop(stop <-chan struct{}, interval time.Duration, beat func()) {
	if interval <= 0 {
		interval = time.Second
	}
	beat()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			beat()
		}
	}
}
