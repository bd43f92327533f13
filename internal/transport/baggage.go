package transport

// In-process baggage relay for the TCP transport. Observability state — the
// active trace span, a batch's attempt spans — rides the caller's context in
// the sim fabric, where handlers run in the caller's process by construction.
// Over TCP those values cannot cross the socket (a *trace.Span is a live
// object), but when both ends of a loopback call live in the same process
// (single-process "tcp" mode, the conformance suites) the caller stashes its
// context under a relay ID carried in the wire header and the server recovers
// the values, layering them under the connection's lifecycle context. A
// genuinely remote process misses the lookup and proceeds without caller
// baggage — exactly how an RPC system behaves before distributed-trace
// propagation is wired up; each process then keeps its own spans.

import (
	"context"
	"sync"
	"sync/atomic"
)

var (
	baggageSeq atomic.Uint64
	baggageMu  sync.Mutex
	baggage    = map[uint64]context.Context{}
)

// stashBaggage registers ctx for the duration of a call and returns its relay
// ID (never 0). The caller must release it with unstashBaggage.
func stashBaggage(ctx context.Context) uint64 {
	id := baggageSeq.Add(1)
	baggageMu.Lock()
	baggage[id] = ctx
	baggageMu.Unlock()
	return id
}

func unstashBaggage(id uint64) {
	baggageMu.Lock()
	delete(baggage, id)
	baggageMu.Unlock()
}

// withBaggage layers the stashed caller context's values — when the call
// looped back into this process — under the server context: values resolve
// from the caller first, lifecycle (cancellation, deadlines) stays with the
// serving connection.
func withBaggage(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	baggageMu.Lock()
	vals, ok := baggage[id]
	baggageMu.Unlock()
	if !ok {
		return ctx
	}
	return baggageCtx{Context: ctx, values: vals}
}

type baggageCtx struct {
	context.Context
	values context.Context
}

func (c baggageCtx) Value(k any) any {
	if v := c.values.Value(k); v != nil {
		return v
	}
	return c.Context.Value(k)
}
