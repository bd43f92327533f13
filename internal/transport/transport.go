// Package transport is Feisu's in-process message fabric, standing in for
// the production RPC channels. It keeps the paper's traffic-flow discipline
// (§V-C): control/state flow has the highest priority and always gets
// through (the production system reserves switch bandwidth for it via TOS),
// write flow (intermediate data to global storage) comes second, and read
// data flow has the lowest priority. Endpoint capacity models a server's
// RPC worker pool: control messages use a reserved lane, while write and
// read messages compete for the remaining slots.
//
// Every call charges simulated network cost (bytes over the topology-derived
// hop count) to the sim.Bill carried by the context, so the benchmark
// harness can reconstruct cluster-scale timings.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Class is a traffic class (paper §V-C).
type Class int

// Traffic classes in descending priority.
const (
	// Control carries cluster commands, heartbeats, task dispatch.
	Control Class = iota
	// Write carries intermediate results toward global storage.
	Write
	// Read carries analyzed data back to the requester.
	Read
	// Shuffle carries keyed repartition frames between shuffle stages. It
	// shares the data lane with Write/Read (competes for DataSlots) but is
	// counted separately so EXPLAIN ANALYZE can attribute transfer bytes to
	// the shuffle segment.
	Shuffle
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Control:
		return "control"
	case Write:
		return "write"
	case Read:
		return "read"
	case Shuffle:
		return "shuffle"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ErrUnknownNode is returned when the destination is not registered.
var ErrUnknownNode = errors.New("transport: unknown node")

// ErrInjected is the default error for messages failed by an Interceptor
// (fault injection); recovery paths treat it like any delivery failure.
var ErrInjected = errors.New("transport: injected fault")

// Fault is an Interceptor's decision for one message. The zero value
// delivers the message untouched.
type Fault struct {
	// Drop fails the call without delivering.
	Drop bool
	// Err overrides the error returned for a dropped message
	// (defaults to ErrInjected).
	Err error
	// Delay pauses delivery (bounded by the call context).
	Delay time.Duration
	// Duplicate delivers the message twice, modeling at-least-once
	// retransmission; handlers are expected to be idempotent.
	Duplicate bool
}

// Interceptor inspects every Call before delivery and can inject faults —
// the hook the chaos plane (internal/chaos) drives. Implementations must be
// safe for concurrent use.
type Interceptor interface {
	Intercept(ctx context.Context, from, to string, class Class, size int64) Fault
}

// Handler processes one message addressed to a node.
type Handler func(ctx context.Context, from string, payload any) (any, error)

// ClassCounters tracks delivered messages and bytes per traffic class.
// Both transports embed it so the accounting surface is identical.
type ClassCounters struct {
	Msgs  [4]metrics.Counter
	Bytes [4]metrics.Counter
}

// Counters exposes the per-class counters behind the Network interface.
func (c *ClassCounters) Counters() *ClassCounters { return c }

func (c *ClassCounters) count(class Class, size int64) {
	c.Msgs[class].Inc()
	c.Bytes[class].Add(size)
}

// Network is the cluster messaging seam: the in-process Fabric (the
// deterministic test double) and the TCP wire transport both satisfy it,
// so masters, stems and leaves are transport-agnostic.
type Network interface {
	// Call delivers a message and waits for the reply. size is the
	// simulated payload size in bytes, fed to the cost model and counters.
	Call(ctx context.Context, from, to string, class Class, payload any, size int64) (any, error)
	// Register attaches a handler to a node name.
	Register(node string, h Handler)
	// Deregister removes a node (server crash).
	Deregister(node string)
	// SetDown marks a node unreachable without removing it.
	SetDown(node string, down bool)
	// SetInterceptor installs (or, with nil, removes) the fault hook.
	SetInterceptor(i Interceptor)
	// Topology returns the placement map used for hop accounting.
	Topology() *Topology
	// Nodes returns the registered node names (live and down).
	Nodes() []string
	// Counters returns the per-class delivery counters.
	Counters() *ClassCounters
}

// Topology records node placement for hop counts and locality decisions.
type Topology struct {
	mu     sync.RWMutex
	rackOf map[string]string
	dcOf   map[string]string
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{rackOf: make(map[string]string), dcOf: make(map[string]string)}
}

// Place records a node's rack and datacenter.
func (t *Topology) Place(node, rack, dc string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rackOf[node] = rack
	t.dcOf[node] = dc
}

// Distance returns 0 for the same node, 1 within a rack, 2 within a
// datacenter and 3 across datacenters. Unknown nodes are assumed remote.
func (t *Topology) Distance(a, b string) int {
	if a == b {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	ra, oka := t.rackOf[a], true
	rb, okb := t.rackOf[b], true
	if ra == "" {
		oka = false
	}
	if rb == "" {
		okb = false
	}
	if !oka || !okb {
		return 3
	}
	if ra == rb {
		return 1
	}
	if t.dcOf[a] == t.dcOf[b] {
		return 2
	}
	return 3
}

// Hops converts a distance into switch hops for cost accounting.
func (t *Topology) Hops(a, b string) int {
	switch t.Distance(a, b) {
	case 0:
		return 0
	case 1:
		return 2
	case 2:
		return 4
	default:
		return 6
	}
}

// Options configure a Fabric.
type Options struct {
	// Model prices transfers; nil disables cost accounting.
	Model *sim.CostModel
	// DataSlots is each endpoint's worker capacity shared by Write and
	// Read traffic; Control always has a free lane. <=0 means unlimited.
	DataSlots int
}

// Both transports satisfy the seam.
var (
	_ Network = (*Fabric)(nil)
	_ Network = (*TCP)(nil)
)

// Fabric connects named endpoints.
type Fabric struct {
	opt  Options
	topo *Topology

	mu          sync.RWMutex
	nodes       map[string]*endpoint
	gen         uint64 // bumped on every Register; stamps endpoints
	interceptor Interceptor

	// per-class counters
	ClassCounters
}

type endpoint struct {
	handler Handler
	slots   chan struct{} // nil when unlimited
	down    bool
	gen     uint64 // registration generation; a restart gets a new one
}

// NewFabric returns a fabric over the topology.
func NewFabric(topo *Topology, opt Options) *Fabric {
	if topo == nil {
		topo = NewTopology()
	}
	return &Fabric{opt: opt, topo: topo, nodes: make(map[string]*endpoint)}
}

// Topology returns the fabric's topology.
func (f *Fabric) Topology() *Topology { return f.topo }

// Register attaches a handler to a node name. Re-registering a name (a
// restarted server) installs a fresh endpoint with a new generation; calls
// that snapshotted the previous endpoint fail instead of reaching the dead
// handler.
func (f *Fabric) Register(node string, h Handler) {
	ep := &endpoint{handler: h}
	if f.opt.DataSlots > 0 {
		ep.slots = make(chan struct{}, f.opt.DataSlots)
	}
	f.mu.Lock()
	f.gen++
	ep.gen = f.gen
	f.nodes[node] = ep
	f.mu.Unlock()
}

// Deregister removes a node (server crash).
func (f *Fabric) Deregister(node string) {
	f.mu.Lock()
	delete(f.nodes, node)
	f.mu.Unlock()
}

// SetDown marks a node unreachable without removing it (partition / crash
// injection for fault-tolerance tests).
func (f *Fabric) SetDown(node string, down bool) {
	f.mu.Lock()
	if ep, ok := f.nodes[node]; ok {
		ep.down = down
	}
	f.mu.Unlock()
}

// SetInterceptor installs (or, with nil, removes) the fault-injection hook
// consulted on every Call.
func (f *Fabric) SetInterceptor(i Interceptor) {
	f.mu.Lock()
	f.interceptor = i
	f.mu.Unlock()
}

// Call delivers a message and waits for the reply. size is the simulated
// payload size in bytes (in-process payloads are passed by reference; the
// size feeds the cost model and counters).
func (f *Fabric) Call(ctx context.Context, from, to string, class Class, payload any, size int64) (any, error) {
	f.mu.RLock()
	ep, ok := f.nodes[to]
	icpt := f.interceptor
	down := ok && ep.down
	f.mu.RUnlock()
	if !ok || down {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	c := call{callHeader: callHeader{From: from, To: to, Class: class, Size: size}, ep: ep}
	return send(ctx, f, icpt, f.opt.Model, c, payload)
}

// carry delivers one copy of a call. Write/Read traffic first waits for one
// of the endpoint's worker slots; Control bypasses them (the
// reserved-bandwidth lane). The handler runs only if the very endpoint
// snapshotted at call time is still the live registration: without the
// generation check a concurrent Deregister+Register (leaf restart) would hand
// the message to the dead handler.
func (f *Fabric) carry(ctx context.Context, c call, payload any) (any, error) {
	ep := c.ep
	if c.Class != Control && ep.slots != nil {
		select {
		case ep.slots <- struct{}{}:
			defer func() { <-ep.slots }()
		case <-ctx.Done():
			return nil, fmt.Errorf("transport: %s call %s->%s: %w", c.Class, c.From, c.To, ctx.Err())
		}
	}
	f.mu.RLock()
	cur, ok := f.nodes[c.To]
	stale := !ok || cur.gen != ep.gen || cur.down
	f.mu.RUnlock()
	if stale {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, c.To)
	}
	return ep.handler(ctx, c.From, payload)
}

// call is one message in flight: its header, and the destination as the
// fabric resolved it — the endpoint snapshotted at call time (Fabric) or the
// dial address (TCP).
type call struct {
	callHeader
	ep   *endpoint
	addr string
}

// carrier is the one part of a Call each fabric does its own way: a single
// delivery of the payload to the destination it resolved.
type carrier interface {
	Network
	carry(ctx context.Context, c call, payload any) (any, error)
}

// send is the front half of every Call on either fabric: the interceptor's
// drop / delay / duplicate, then per delivery the class counters and the
// transfer bill, then the last successful reply wins. c travels by value and
// n is the fabric itself, so a delivered call allocates nothing here.
func send(ctx context.Context, n carrier, icpt Interceptor, model *sim.CostModel, c call, payload any) (any, error) {
	duplicate := false
	if icpt != nil {
		fault := icpt.Intercept(ctx, c.From, c.To, c.Class, c.Size)
		if fault.Drop {
			err := fault.Err
			if err == nil {
				err = ErrInjected
			}
			return nil, fmt.Errorf("transport: %s call %s->%s: %w", c.Class, c.From, c.To, err)
		}
		if fault.Delay > 0 {
			select {
			case <-time.After(fault.Delay):
			case <-ctx.Done():
				return nil, fmt.Errorf("transport: %s call %s->%s: %w", c.Class, c.From, c.To, ctx.Err())
			}
		}
		duplicate = fault.Duplicate
	}

	deliveries := 1
	if duplicate {
		// At-least-once retransmission: both copies cross the wire, so both
		// count against the class counters and the transfer bill.
		deliveries = 2
	}
	var (
		reply     any
		lastErr   error
		delivered bool
	)
	for i := 0; i < deliveries; i++ {
		n.Counters().count(c.Class, c.Size)
		if b := storage.BillFrom(ctx); b != nil && model != nil {
			if hops := n.Topology().Hops(c.From, c.To); hops > 0 {
				b.ChargeTransfer(model, c.Size, hops)
			}
		}
		r, err := n.carry(ctx, c, payload)
		if err != nil {
			lastErr = err
			continue
		}
		// The surviving reply is the last successful one; an earlier failed
		// copy must not mask it (and vice versa — one success is enough).
		reply, delivered = r, true
	}
	if delivered {
		return reply, nil
	}
	return nil, lastErr
}

// Nodes returns the registered node names (live and down).
func (f *Fabric) Nodes() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.nodes))
	for n := range f.nodes {
		out = append(out, n)
	}
	return out
}
