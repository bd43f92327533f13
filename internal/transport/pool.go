package transport

// Per-peer connection pools. A call checks out an idle connection, or dials
// one, and holds it for one request/reply exchange; calls of every class
// share the pool, so the number of open sockets follows the number of calls
// in flight. An idle connection holds no codec state, only its socket and
// buffers bounded by keepWriteBuf and keepReadBuf (stream.go), so any idle
// connection serves the next call as well as any other.

import (
	"context"
	"fmt"
	"sync"
)

// peerPool manages connections to one peer address.
type peerPool struct {
	addr string
	dial func(ctx context.Context, addr string) (*wireConn, error)

	mu     sync.Mutex
	closed bool
	idle   []*wireConn
	live   map[*wireConn]struct{} // every open conn, for Close
}

// get checks out a connection for one call: the most recently returned idle
// one, or a fresh dial.
func (p *peerPool) get(ctx context.Context) (*wireConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("transport: pool for %s closed", p.addr)
	}
	if n := len(p.idle); n > 0 {
		wc := p.idle[n-1]
		p.idle = p.idle[:n-1]
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
// where the next frame starts) is closed rather than reused.
func (p *peerPool) put(wc *wireConn, broken bool) {
	p.mu.Lock()
	if broken || p.closed {
		delete(p.live, wc)
		p.mu.Unlock()
		wc.c.Close()
		return
	}
	p.idle = append(p.idle, wc)
	p.mu.Unlock()
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
	p.idle = nil
	p.mu.Unlock()
	for _, wc := range conns {
		wc.c.Close()
	}
}
