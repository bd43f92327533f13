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
	// Router performs spill writes and resolves data locality; nil
	// disables spilling and the remote-read penalty.
	Router *storage.Router
	// Model prices remote reads; nil disables the penalty.
	Model *sim.CostModel
	// SpillThreshold sends results above this size via global storage
	// instead of inline; <=0 disables spilling.
	SpillThreshold int64
	// SpillPrefix is where spilled results go (e.g. "/hdfs/feisu-tmp").
	SpillPrefix string
	// Events, when set, journals task executions into the flight recorder.
	Events *events.Recorder

	// stall is a per-task pause in nanoseconds (straggler fault injection),
	// atomic because the chaos controller flips it while tasks run.
	stall    atomic.Int64
	active   atomic.Int32
	spillSeq atomic.Int64
	life     lifecycle

	// Tasks counts sub-plans executed; Spills counts results written to
	// global storage instead of returned inline.
	Tasks  metrics.Counter
	Spills metrics.Counter
}

// RegisterMetrics publishes the leaf's counters into a central registry
// under the given name prefix (e.g. "leaf0.").
func (l *LeafServer) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.Register(prefix+"tasks", &l.Tasks)
	reg.Register(prefix+"spills", &l.Spills)
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
	case taskMsg:
		return l.runTask(ctx, msg)
	default:
		return nil, fmt.Errorf("cluster: leaf %s: unknown message %T", l.Name, payload)
	}
}

// runTask executes one sub-plan, billing simulated I/O to a private bill. A
// scatter task returns its result (through global storage past the spill
// threshold); a map task ships it to the reducers and returns the transfer
// accounting.
func (l *LeafServer) runTask(ctx context.Context, msg taskMsg) (any, error) {
	l.active.Add(1)
	defer l.active.Add(-1)
	l.Tasks.Inc()
	var span *trace.Span
	if trace.FromContext(ctx) != nil { // the name is rendered only for a live trace
		ctx, span = trace.StartSpan(ctx, "leaf/"+l.Name)
		defer span.Finish()
		span.SetAttr("partition", msg.Task.Partition.Path)
	}
	if !sleepCtx(ctx, l.Stall()) {
		return nil, ctx.Err()
	}
	bill := sim.NewBill()
	res, err := exec.RunTaskModel(storage.WithBill(ctx, bill), msg.Task, l.Reader, l.Index, l.Model)
	if err != nil {
		return nil, err
	}
	l.chargeRemoteRead(ctx, bill, msg.Task.Partition.Path)
	// The leaf span's sim time is the task's full simulated cost; the
	// read:*/transfer children decompose it per device class.
	span.SetSim(bill.Time())
	billSpans(span, bill)
	reply := taskReply{SimTime: bill.Time(), DevBytes: deviceBytes(bill)}
	journal := msg.QueryID != "" && l.Events.Enabled()
	if msg.Exchange != "" {
		rows, err := l.routeShuffle(ctx, msg, res, &reply)
		if err != nil {
			return nil, err
		}
		if journal {
			l.Events.EmitSim(events.TaskSite(msg.QueryID, msg.Task.Ordinal), events.ShuffleMap,
				msg.QueryID, msg.Task.Ordinal, bill.Time(),
				fmt.Sprintf("%s side=%s attempt=%d rows=%d", l.Name, msg.Side, msg.Attempt, rows))
		}
		return reply, nil
	}
	if journal {
		l.Events.EmitSim(events.TaskSite(msg.QueryID, msg.Task.Ordinal), events.LeafExec,
			msg.QueryID, msg.Task.Ordinal, bill.Time(), l.Name+" "+msg.Task.Partition.Path)
	}
	reply.Result, reply.Size = res, res.EstimateBytes()
	if l.SpillThreshold > 0 && reply.Size > l.SpillThreshold && l.Router != nil {
		l.Spills.Inc()
		data, err := encodeResult(res)
		if err != nil {
			return nil, err
		}
		path := fmt.Sprintf("%s/%s-%d", l.SpillPrefix, l.Name, l.spillSeq.Add(1))
		// Spilling is write-flow traffic to global storage (§V-C).
		if err := l.Router.WriteFile(ctx, path, data); err != nil {
			return nil, fmt.Errorf("cluster: spill to %s: %w", path, err)
		}
		l.Fabric.Counters().Msgs[transport.Write].Inc()
		l.Fabric.Counters().Bytes[transport.Write].Add(int64(len(data)))
		reply.Result = nil
		reply.SpillPath = path
		reply.Size = int64(len(data))
	}
	return reply, nil
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
	holders := l.Router.Locations(path)
	if len(holders) == 0 {
		return
	}
	hops := 1 << 30
	topo := l.Fabric.Topology()
	for _, h := range holders {
		if h == l.Name {
			return // local read
		}
		if hp := topo.Hops(l.Name, h); hp < hops {
			hops = hp
		}
	}
	moved := bill.Bytes(sim.DeviceHDD) + bill.Bytes(sim.DeviceCold)
	if l.Router.Device(path) == sim.DeviceSSD {
		moved += bill.Bytes(sim.DeviceSSD)
	}
	if moved > 0 && hops > 0 && hops < 1<<30 {
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
	s := LoadSnapshot{
		ActiveTasks: int(l.active.Load()),
		TasksDone:   l.Tasks.Value(),
	}
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
