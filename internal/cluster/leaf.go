package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/metrics"
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
	// Events, when set, journals task executions into the flight recorder.
	Events *events.Recorder

	// stall is a per-task pause in nanoseconds (straggler fault injection),
	// atomic because the chaos controller flips it while tasks run.
	stall   atomic.Int64
	active  atomic.Int32
	queued  atomic.Int32 // tasks received in a batch and not yet started
	batches atomic.Int64 // batches received (runBatch's run order)
	life    lifecycle

	// Tasks counts sub-plans executed.
	Tasks metrics.Counter
}

// RegisterMetrics publishes the leaf's counters into a central registry
// under the given name prefix (e.g. "leaf0.").
func (l *LeafServer) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.Register(prefix+"tasks", &l.Tasks)
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
// batches it serves at once. A failed task is reported in its own slot; the
// rest of the batch still runs. Every other batch runs back to front:
// statements that read the same partitions in one fixed order are the column
// cache's LRU worst case (each chunk evicted just before it is read again).
func (l *LeafServer) runBatch(ctx context.Context, b *taskBatch) batchReply {
	reply := batchReply{Tasks: make([]taskReply, len(b.Tasks))}
	l.queued.Add(int32(len(b.Tasks)))
	first, step := 0, 1
	if l.batches.Add(1)%2 == 0 {
		first, step = len(b.Tasks)-1, -1
	}
	for i := first; 0 <= i && i < len(b.Tasks); i += step {
		l.queued.Add(-1)
		if err := l.runTask(ctx, b, i, &reply.Tasks[i]); err != nil {
			reply.Tasks[i] = taskReply{Status: taskStatus{Err: err.Error()}}
		}
	}
	return reply
}

// runTask executes the batch's task i into reply under its TaskTimeout and
// its attempt span, billing simulated I/O to a private bill. A scatter task
// returns its result; a map task ships it to the reducers and returns the
// transfer accounting.
func (l *LeafServer) runTask(ctx context.Context, b *taskBatch, i int, reply *taskReply) error {
	if spans, _ := ctx.Value(taskSpansKey{}).([]*trace.Span); i < len(spans) {
		ctx = trace.NewContext(ctx, spans[i])
	}
	l.active.Add(1)
	defer l.active.Add(-1)
	l.Tasks.Inc()
	if b.TaskTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, b.TaskTimeout)
		defer cancel()
	}
	task := b.Tasks[i]
	var span *trace.Span
	if trace.FromContext(ctx) != nil { // the name is rendered only for a live trace
		ctx, span = trace.StartSpan(ctx, "leaf/"+l.Name)
		defer span.Finish()
		span.SetAttr("partition", task.Partition.Path)
	}
	if !sleepCtx(ctx, l.Stall()) {
		return ctx.Err()
	}
	bill := sim.NewBill()
	res, err := exec.RunTaskModel(storage.WithBill(ctx, bill), task, l.Reader, l.Index, l.Model)
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
			l.Events.EmitSim(events.TaskSite(b.QueryID, task.Ordinal), events.ShuffleMap,
				b.QueryID, task.Ordinal, bill.Time(),
				fmt.Sprintf("%s side=%s attempt=%d rows=%d", l.Name, b.Sides[task.Ordinal], b.Attempt, rows))
		}
		return nil
	}
	if journal && b.Attempt > 0 { // a first attempt is summed up by task.done
		l.Events.EmitSim(events.TaskSite(b.QueryID, task.Ordinal), events.LeafExec,
			b.QueryID, task.Ordinal, bill.Time(), l.Name+" "+task.Partition.Path)
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
	load := l.LoadSnapshot()
	_, err := l.Fabric.Call(ctx, l.Name, master, transport.Control,
		heartbeatMsg{Name: l.Name, Kind: KindLeaf, Active: load.ActiveTasks, Load: load}, 64)
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
	Name   string
	Kind   WorkerKind
	Active int
	// Load is the worker's full load snapshot (Load.ActiveTasks == Active).
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
