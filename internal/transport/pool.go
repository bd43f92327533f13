package transport

// Per-peer connection pools with the paper's lane discipline (§V-C):
// Control gets a dedicated, uncapped lane so cluster commands and
// heartbeats are never queued behind bulk transfer, while Write/Read/
// Shuffle share a bounded set of data-lane slots per peer — a saturated
// peer backpressures new data calls at the pool instead of stacking
// unbounded sockets.

import (
	"context"
	"fmt"
	"sync"
)

// hotConnsPerLane is how many idle connections of a lane keep their stream
// state (compiled codecs, buffers); idle connections beyond it are stripped.
const hotConnsPerLane = 8

// peerPool manages connections to one peer address.
type peerPool struct {
	addr string
	dial func(ctx context.Context, addr string) (*wireConn, error)

	dataSem chan struct{} // nil = unlimited; caps in-flight data-lane calls

	mu      sync.Mutex
	closed  bool
	control []*wireConn            // idle control-lane conns
	data    []*wireConn            // idle data-lane conns
	live    map[*wireConn]struct{} // every open conn, for Close
}

func newPeerPool(addr string, dataConns int, dial func(ctx context.Context, addr string) (*wireConn, error)) *peerPool {
	p := &peerPool{addr: addr, dial: dial, live: make(map[*wireConn]struct{})}
	if dataConns > 0 {
		p.dataSem = make(chan struct{}, dataConns)
	}
	return p
}

// get checks out a connection for one call of the given class. Data-lane
// checkouts block (context-bounded) once the per-peer slot cap is reached;
// control-lane checkouts never wait on data traffic.
func (p *peerPool) get(ctx context.Context, class Class) (*wireConn, error) {
	if class != Control && p.dataSem != nil {
		select {
		case p.dataSem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	wc, err := p.checkout(ctx, class)
	if err != nil && class != Control && p.dataSem != nil {
		<-p.dataSem
	}
	return wc, err
}

func (p *peerPool) checkout(ctx context.Context, class Class) (*wireConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("transport: pool for %s closed", p.addr)
	}
	idle := &p.data
	if class == Control {
		idle = &p.control
	}
	if n := len(*idle); n > 0 {
		wc := (*idle)[n-1]
		*idle = (*idle)[:n-1]
		p.mu.Unlock()
		return wc, nil
	}
	p.mu.Unlock()

	wc, err := p.dial(ctx, p.addr)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		wc.c.Close()
		return nil, fmt.Errorf("transport: pool for %s closed", p.addr)
	}
	p.live[wc] = struct{}{}
	p.mu.Unlock()
	return wc, nil
}

// put returns a connection after a call. A broken conn (any framing, codec
// or I/O error mid-call, or a call abandoned half-way: its payload stream is
// poisoned) is closed rather than reused. The data-lane slot is
// released either way — the cap bounds in-flight calls, not idle sockets.
//
// Checkout is last-in first-out, so steady traffic lives on the top few
// connections of a lane and the rest are what a burst left behind. Those
// keep their socket — a burst that recurs must not redial — but not their
// stream state: a connection returned to a lane that already holds
// hotConnsPerLane idle connections with state is stripped at both ends and
// goes to the bottom of the stack.
func (p *peerPool) put(wc *wireConn, class Class, broken bool) {
	idle := &p.data
	if class == Control {
		idle = &p.control
	}
	p.mu.Lock()
	hot := 0
	for _, c := range *idle {
		if c.hasState() {
			hot++
		}
	}
	surplus := hot >= hotConnsPerLane
	p.mu.Unlock()
	if surplus && !broken {
		wc.strip()
		broken = wc.sendFrame(frame{kind: frameStrip}) != nil
	}
	p.mu.Lock()
	switch {
	case broken || p.closed:
		delete(p.live, wc)
		p.mu.Unlock()
		wc.c.Close()
	case surplus:
		*idle = append([]*wireConn{wc}, *idle...)
		p.mu.Unlock()
	default:
		*idle = append(*idle, wc)
		p.mu.Unlock()
	}
	if class != Control && p.dataSem != nil {
		<-p.dataSem
	}
}

// close tears down every connection, idle or in flight.
func (p *peerPool) close() {
	p.mu.Lock()
	p.closed = true
	conns := make([]*wireConn, 0, len(p.live))
	for wc := range p.live {
		conns = append(conns, wc)
	}
	p.live = make(map[*wireConn]struct{})
	p.control, p.data = nil, nil
	p.mu.Unlock()
	for _, wc := range conns {
		wc.c.Close()
	}
}
