package transport

// Per-peer connection pools with the paper's lane discipline (§V-C):
// Control gets a dedicated, uncapped lane so cluster commands and
// heartbeats are never queued behind bulk transfer, while Write/Read/
// Shuffle share a bounded set of data-lane slots per peer — a saturated
// peer backpressures new data calls at the pool instead of stacking
// unbounded sockets. An idle connection holds no codec state, only its
// socket and buffers bounded by keepWriteBuf and keepReadBuf (stream.go), so
// any idle connection serves the next call as well as any other.

import (
	"context"
	"fmt"
	"sync"
)

// peerPool manages connections to one peer address.
type peerPool struct {
	addr string
	dial func(ctx context.Context, addr string) (*wireConn, error)

	dataSem chan struct{} // nil = unlimited; caps in-flight data-lane calls

	mu     sync.Mutex
	closed bool
	idle   [2][]*wireConn         // idle conns by lane: control, data
	live   map[*wireConn]struct{} // every open conn, for Close
}

// lane is the index of a class's idle connections.
func lane(class Class) int {
	if class == Control {
		return 0
	}
	return 1
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
	idle := &p.idle[lane(class)]
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

// put returns a connection after a call. A broken conn (any framing or I/O
// error mid-call, or a call abandoned half-way: the ends may disagree about
// where the next frame starts) is closed rather than reused. The data-lane
// slot is released either way — the cap bounds in-flight calls, not idle
// sockets.
func (p *peerPool) put(wc *wireConn, class Class, broken bool) {
	p.mu.Lock()
	if broken || p.closed {
		delete(p.live, wc)
		p.mu.Unlock()
		wc.c.Close()
	} else {
		p.idle[lane(class)] = append(p.idle[lane(class)], wc)
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
	p.idle = [2][]*wireConn{}
	p.mu.Unlock()
	for _, wc := range conns {
		wc.c.Close()
	}
}
