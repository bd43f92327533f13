package transport

// TCP is the real wire transport behind the Network seam: length-prefixed
// framed messages over pooled TCP connections, with the same traffic-class
// counters as the in-process Fabric. One process runs one listener; every
// node Registered in that process is served behind it, and frames carry the
// destination name so a feisu-node process can host a master, stem, or
// leaf (or, in conformance tests, a whole cluster). Calls to local nodes
// still cross the socket — the point of this transport is that nothing is
// delivered by function call.
//
// Faults (the chaos plane) are injected on the caller side, exactly where
// Fabric injects them, so seeded chaos schedules behave identically on
// both transports.

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
)

// TCPOptions configure the wire transport.
type TCPOptions struct {
	// ListenAddr is the shared listener address for every node Registered
	// in this process. Default "127.0.0.1:0" (ephemeral loopback).
	ListenAddr string
}

// TCP implements Network over real sockets.
type TCP struct {
	topo *Topology
	ln   net.Listener
	addr string

	ClassCounters
	// WireBytes counts real encoded payload bytes per class (requests +
	// replies, as framed on this process's client connections). The embedded ClassCounters mirror the
	// Fabric contract and count the caller-declared simulated sizes.
	WireBytes [numClasses]metrics.Counter

	mu          sync.RWMutex
	local       map[string]*endpoint
	peers       map[string]string // remote node -> dial address
	downRemote  map[string]bool   // SetDown for non-local nodes
	pools       map[string]*peerPool
	interceptor Interceptor
	closed      bool

	baseCtx   context.Context
	baseStop  context.CancelFunc
	acceptErr error
	wg        sync.WaitGroup
}

// NewTCP starts the process's listener and returns the transport.
func NewTCP(topo *Topology, _ Options, tcpOpt TCPOptions) (*TCP, error) {
	if topo == nil {
		topo = NewTopology()
	}
	if tcpOpt.ListenAddr == "" {
		tcpOpt.ListenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", tcpOpt.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", tcpOpt.ListenAddr, err)
	}
	ctx, stop := context.WithCancel(context.Background())
	t := &TCP{
		topo:       topo,
		ln:         ln,
		addr:       ln.Addr().String(),
		local:      make(map[string]*endpoint),
		peers:      make(map[string]string),
		downRemote: make(map[string]bool),
		pools:      make(map[string]*peerPool),
		baseCtx:    ctx,
		baseStop:   stop,
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listener address (host:port) other processes dial.
func (t *TCP) Addr() string { return t.addr }

// Topology returns the placement map used for hop accounting.
func (t *TCP) Topology() *Topology { return t.topo }

// Register hosts a node behind this process's listener. Re-registering a
// name installs a fresh endpoint (server restart): a call reaches whichever
// endpoint is registered when its frame is served.
func (t *TCP) Register(node string, h Handler) {
	t.mu.Lock()
	t.local[node] = &endpoint{handler: h}
	t.mu.Unlock()
}

// Deregister removes a hosted node (server crash).
func (t *TCP) Deregister(node string) {
	t.mu.Lock()
	delete(t.local, node)
	t.mu.Unlock()
}

// SetDown marks a node unreachable without removing it. For hosted nodes
// the server refuses delivery; for remote nodes the caller side refuses.
func (t *TCP) SetDown(node string, down bool) {
	t.mu.Lock()
	if ep, ok := t.local[node]; ok {
		ep.down = down
	} else {
		t.downRemote[node] = down
	}
	t.mu.Unlock()
}

// SetInterceptor installs (or removes) the fault-injection hook.
func (t *TCP) SetInterceptor(i Interceptor) {
	t.mu.Lock()
	t.interceptor = i
	t.mu.Unlock()
}

// AddPeer records where a remote node can be dialed (static discovery,
// the -peers flag of cmd/feisu-node).
func (t *TCP) AddPeer(node, addr string) {
	t.mu.Lock()
	t.peers[node] = addr
	t.mu.Unlock()
}

// Discover dials addr, handshakes, and records every node hosted there.
// It returns the discovered node names.
func (t *TCP) Discover(ctx context.Context, addr string) ([]string, error) {
	wc, err := t.dialPeer(ctx, addr)
	if err != nil {
		return nil, err
	}
	wc.c.Close()
	t.mu.RLock()
	var nodes []string
	for n, a := range t.peers {
		if a == addr {
			nodes = append(nodes, n)
		}
	}
	t.mu.RUnlock()
	return nodes, nil
}

// Nodes returns hosted and known-remote node names.
func (t *TCP) Nodes() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.local)+len(t.peers))
	for n := range t.local {
		out = append(out, n)
	}
	for n := range t.peers {
		if _, hosted := t.local[n]; !hosted {
			out = append(out, n)
		}
	}
	return out
}

// Close stops the listener and tears down every pool and connection.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	pools := t.pools
	t.pools = make(map[string]*peerPool)
	t.mu.Unlock()
	t.baseStop()
	err := t.ln.Close()
	for _, p := range pools {
		p.close()
	}
	t.wg.Wait()
	return err
}

// resolve maps a destination node to a dial address.
func (t *TCP) resolve(to string) (string, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if _, ok := t.local[to]; ok {
		return t.addr, nil
	}
	if t.downRemote[to] {
		return "", fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	if addr, ok := t.peers[to]; ok {
		return addr, nil
	}
	return "", fmt.Errorf("%w: %q", ErrUnknownNode, to)
}

// Call delivers a message over the wire and waits for the reply. Past the
// destination lookup it is send, exactly as Fabric.Call: the same faults,
// at-least-once duplicates and counters.
func (t *TCP) Call(ctx context.Context, from, to string, class Class, payload any, size int64) (any, error) {
	addr, err := t.resolve(to)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	icpt := t.interceptor
	t.mu.RUnlock()
	c := call{callHeader: callHeader{From: from, To: to, Class: class, Size: size}, addr: addr}
	if d, ok := ctx.Deadline(); ok {
		c.Deadline = d.UnixNano()
	}
	return send(ctx, t, icpt, c, payload)
}

// carry performs one request/reply exchange on a pooled connection. Each
// delivery encodes the payload anew, straight into the connection's write
// buffer.
func (t *TCP) carry(ctx context.Context, c call, payload any) (reply any, err error) {
	hdr, class := c.callHeader, c.Class
	pool := t.poolFor(c.addr)
	wc, err := pool.get(ctx)
	if err != nil {
		return nil, fmt.Errorf("transport: %s call %s->%s: %w", class, hdr.From, hdr.To, err)
	}
	// Anything short of a complete exchange leaves the connection mid-frame:
	// it is closed, not returned.
	broken := true
	// Context plumbing: honor the deadline directly, and unblock the
	// socket (via an immediate deadline) if the context is canceled while
	// the call is in flight. A canceled call abandons the connection.
	if d, ok := ctx.Deadline(); ok {
		wc.c.SetDeadline(d)
	} else {
		wc.c.SetDeadline(time.Time{})
	}
	stopWatch := func() bool { return true }
	if ctx.Done() != nil {
		stopWatch = context.AfterFunc(ctx, func() { wc.c.SetDeadline(time.Unix(1, 0)) })
	}
	defer func() {
		// A watcher that already fired may still be about to set its
		// deadline; such a connection cannot go back to the pool.
		if !stopWatch() {
			broken = true
		}
		pool.put(wc, broken)
	}()

	var flags byte
	if payload == nil {
		flags = flagNilPayload
	}
	wc.queueCall(hdr, flags)
	if payload != nil {
		n, err := wc.queuePayload(byte(class), payload)
		if err != nil {
			return nil, err
		}
		t.WireBytes[class].Add(n)
	}
	if err := wc.flush(); err != nil {
		return nil, callErr(ctx, hdr, err)
	}

	rf, err := wc.readFrame()
	if err != nil {
		return nil, callErr(ctx, hdr, err)
	}
	switch rf.kind {
	case frameError:
		broken = rf.flags&flagClose != 0
		return nil, decodeErrorFrame(rf)
	case frameReply:
		if rf.flags&flagNilPayload != 0 {
			broken = false
			return nil, nil
		}
		out, n, err := wc.readPayload()
		if err != nil {
			return nil, callErr(ctx, hdr, err)
		}
		t.WireBytes[class].Add(n)
		broken = false
		return out, nil
	default:
		return nil, fmt.Errorf("transport: %s call %s->%s: unexpected reply frame kind %d", class, hdr.From, hdr.To, rf.kind)
	}
}

func callErr(ctx context.Context, hdr callHeader, err error) error {
	if ctx.Err() != nil {
		err = ctx.Err()
	}
	return fmt.Errorf("transport: %s call %s->%s: %w", hdr.Class, hdr.From, hdr.To, err)
}

func (t *TCP) poolFor(addr string) *peerPool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.pools[addr]; ok {
		return p
	}
	p := &peerPool{addr: addr, dial: t.dialPeer, live: make(map[*wireConn]struct{})}
	t.pools[addr] = p
	return p
}

// dialPeer opens and handshakes one connection, learning the nodes hosted
// at addr.
func (t *TCP) dialPeer(ctx context.Context, addr string) (*wireConn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	t.mu.RLock()
	var self string
	for n := range t.local {
		self = n
		break
	}
	t.mu.RUnlock()
	if d, ok := ctx.Deadline(); ok {
		c.SetDeadline(d)
	}
	wc := newWireConn(c)
	if err := wc.sendFrame(frame{kind: frameHello, body: helloMsg{Version: CodecVersion, From: self}.append(nil)}); err != nil {
		c.Close()
		return nil, fmt.Errorf("transport: handshake write to %s: %w", addr, err)
	}
	af, err := wc.readFrame()
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("transport: handshake read from %s: %w", addr, err)
	}
	if af.kind == frameError {
		c.Close()
		return nil, decodeErrorFrame(af)
	}
	if af.kind != frameHelloAck {
		c.Close()
		return nil, fmt.Errorf("transport: handshake with %s: unexpected frame kind %d", addr, af.kind)
	}
	ack, err := parseHelloAck(af.body)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("transport: handshake with %s: %w", addr, err)
	}
	if ack.Version != CodecVersion {
		c.Close()
		return nil, fmt.Errorf("transport: peer %s speaks codec version %d, want %d", addr, ack.Version, CodecVersion)
	}
	c.SetDeadline(time.Time{})
	// Handshake doubles as discovery: remember which nodes answer here.
	t.mu.Lock()
	for _, n := range ack.Nodes {
		if _, hosted := t.local[n]; !hosted {
			t.peers[n] = addr
		}
	}
	t.mu.Unlock()
	return wc, nil
}

// --- server side -----------------------------------------------------------

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			t.mu.Lock()
			if !t.closed {
				t.acceptErr = err
			}
			t.mu.Unlock()
			return
		}
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		t.wg.Add(1)
		go t.serveConn(c)
	}
}

func (t *TCP) serveConn(c net.Conn) {
	defer t.wg.Done()
	defer c.Close()
	ctx, cancel := context.WithCancel(t.baseCtx)
	defer cancel()
	stop := context.AfterFunc(t.baseCtx, func() { c.SetDeadline(time.Unix(1, 0)) })
	defer stop()

	wc := newWireConn(c)
	// Handshake first: version check, then advertise hosted nodes.
	hf, err := wc.readFrame()
	if err != nil || hf.kind != frameHello {
		return
	}
	hello, err := parseHello(hf.body)
	if err != nil {
		return
	}
	if hello.Version != CodecVersion {
		wc.sendFrame(encodeErrorFrame(0, flagClose, fmt.Errorf("transport: codec version %d not supported (want %d)", hello.Version, CodecVersion)))
		return
	}
	t.mu.RLock()
	nodes := make([]string, 0, len(t.local))
	for n := range t.local {
		nodes = append(nodes, n)
	}
	t.mu.RUnlock()
	if err := wc.sendFrame(frame{kind: frameHelloAck, body: helloAck{Version: CodecVersion, Nodes: nodes}.append(nil)}); err != nil {
		return
	}

	// One request at a time per connection; the pools on the caller side
	// provide the concurrency. A handler error is an ordinary reply and the
	// connection lives on. A payload that cannot be decoded, or a reply that
	// cannot be encoded, ends the connection: the error frame says so
	// (flagClose), and the caller dials afresh rather than trust a peer that
	// sent, or asked for, bytes neither end can read.
	for {
		cf, err := wc.readFrame()
		if err != nil || cf.kind != frameCall {
			return
		}
		hdr, err := parseCallHeader(cf.body)
		if err != nil {
			return
		}
		var payload any
		if cf.flags&flagNilPayload == 0 {
			if payload, _, err = wc.readPayload(); err != nil {
				wc.sendFrame(encodeErrorFrame(cf.class, flagClose, err))
				return
			}
		}
		reply, err := t.serveCall(ctx, hdr, payload)
		if err != nil {
			if wc.sendFrame(encodeErrorFrame(cf.class, 0, err)) != nil {
				return
			}
			continue
		}
		rf := frame{kind: frameReply, class: cf.class}
		if reply == nil {
			rf.flags |= flagNilPayload
		}
		wc.queueFrame(rf)
		if reply != nil {
			if _, err := wc.queuePayload(cf.class, reply); err != nil {
				wc.out = wc.out[:0] // the reply frame queued before it
				wc.sendFrame(encodeErrorFrame(cf.class, flagClose, err))
				return
			}
		}
		if wc.flush() != nil {
			return
		}
	}
}

// serveCall resolves the destination endpoint at delivery time, so a
// restarted node's frames reach its live registration, and invokes its
// handler under the caller's deadline.
func (t *TCP) serveCall(ctx context.Context, hdr callHeader, payload any) (any, error) {
	if hdr.Deadline != 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Unix(0, hdr.Deadline))
		defer cancel()
	}
	t.mu.RLock()
	ep, ok := t.local[hdr.To]
	down := ok && ep.down
	t.mu.RUnlock()
	if !ok || down {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, hdr.To)
	}
	return ep.handler(ctx, hdr.From, payload)
}
