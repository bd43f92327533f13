package transport

// Transport conformance battery: every behavioral contract of the Network
// seam, run identically against the in-process Fabric (the deterministic
// test double) and the TCP wire transport. The cluster-level suites
// (differential, metamorphic, chaos equivalence) get the same guarantee via
// FEISU_TRANSPORT=tcp; this battery is the fast, focused version.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
)

type confPayload struct {
	N    int
	S    string
	Blob []byte
}

type confReply struct {
	Echo string
	N    int
	Blob []byte
}

func init() {
	RegisterPayload(confPayload{})
	RegisterPayload(confReply{})
}

type netCase struct {
	name string
	mk   func(t *testing.T, topo *Topology, opt Options) Network
}

func netCases() []netCase {
	return []netCase{
		{"fabric", func(t *testing.T, topo *Topology, opt Options) Network {
			return NewFabric(topo, opt)
		}},
		{"tcp", func(t *testing.T, topo *Topology, opt Options) Network {
			tr, err := NewTCP(topo, opt, TCPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tr.Close() })
			return tr
		}},
	}
}

// fixedFault returns the same Fault for every message.
type fixedFault struct{ f Fault }

func (ff fixedFault) Intercept(ctx context.Context, from, to string, class Class, size int64) Fault {
	return ff.f
}

func TestConformanceRoundTrip(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{})
			n.Register("leaf1", func(ctx context.Context, from string, payload any) (any, error) {
				p := payload.(confPayload)
				if from != "master" {
					return nil, fmt.Errorf("from = %q", from)
				}
				return confReply{Echo: p.S, N: p.N * 2, Blob: p.Blob}, nil
			})
			got, err := n.Call(context.Background(), "master", "leaf1", Control, confPayload{N: 21, S: "hi", Blob: []byte{1, 2, 3}}, 100)
			if err != nil {
				t.Fatal(err)
			}
			r := got.(confReply)
			if r.Echo != "hi" || r.N != 42 || len(r.Blob) != 3 {
				t.Errorf("reply = %+v", r)
			}
			c := n.Counters()
			if c.Msgs[Control].Value() != 1 || c.Bytes[Control].Value() != 100 {
				t.Errorf("counters = %d msgs %d bytes", c.Msgs[Control].Value(), c.Bytes[Control].Value())
			}
		})
	}
}

func TestConformanceNilPayloadAndReply(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{})
			n.Register("x", func(ctx context.Context, from string, payload any) (any, error) {
				if payload != nil {
					return nil, fmt.Errorf("payload = %v, want nil", payload)
				}
				return nil, nil
			})
			got, err := n.Call(context.Background(), "m", "x", Control, nil, 0)
			if err != nil || got != nil {
				t.Fatalf("nil round trip = %v, %v", got, err)
			}
		})
	}
}

func TestConformanceUnknownDownDeregister(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{})
			if _, err := n.Call(context.Background(), "m", "ghost", Control, nil, 0); !errors.Is(err, ErrUnknownNode) {
				t.Errorf("unknown = %v", err)
			}
			n.Register("x", func(context.Context, string, any) (any, error) { return nil, nil })
			n.SetDown("x", true)
			if _, err := n.Call(context.Background(), "m", "x", Control, nil, 0); !errors.Is(err, ErrUnknownNode) {
				t.Errorf("down = %v", err)
			}
			n.SetDown("x", false)
			if _, err := n.Call(context.Background(), "m", "x", Control, nil, 0); err != nil {
				t.Errorf("up again = %v", err)
			}
			n.Deregister("x")
			if _, err := n.Call(context.Background(), "m", "x", Control, nil, 0); !errors.Is(err, ErrUnknownNode) {
				t.Errorf("deregistered = %v", err)
			}
		})
	}
}

// Handler errors must preserve both the message and typed sentinels across
// the transport: the stem's failover logic switches on
// errors.Is(err, ErrUnknownNode).
func TestConformanceHandlerErrors(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{})
			n.Register("x", func(ctx context.Context, from string, payload any) (any, error) {
				switch payload.(string) {
				case "plain":
					return nil, errors.New("scan failed: extent 7 corrupt")
				case "unknown":
					return nil, fmt.Errorf("forwarding: %w", ErrUnknownNode)
				default:
					return nil, fmt.Errorf("chaos: %w", ErrInjected)
				}
			})
			_, err := n.Call(context.Background(), "m", "x", Control, "plain", 0)
			if err == nil || !strings.Contains(err.Error(), "extent 7 corrupt") {
				t.Errorf("plain error = %v", err)
			}
			if _, err := n.Call(context.Background(), "m", "x", Control, "unknown", 0); !errors.Is(err, ErrUnknownNode) {
				t.Errorf("sentinel ErrUnknownNode lost: %v", err)
			}
			if _, err := n.Call(context.Background(), "m", "x", Control, "injected", 0); !errors.Is(err, ErrInjected) {
				t.Errorf("sentinel ErrInjected lost: %v", err)
			}
		})
	}
}

func TestConformanceInterceptorDropAndDelay(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{})
			var calls atomic.Int32
			n.Register("x", func(context.Context, string, any) (any, error) {
				calls.Add(1)
				return "ok", nil
			})
			custom := errors.New("link flap")
			n.SetInterceptor(fixedFault{Fault{Drop: true, Err: custom}})
			if _, err := n.Call(context.Background(), "m", "x", Control, "p", 1); !errors.Is(err, custom) {
				t.Errorf("drop err = %v", err)
			}
			if calls.Load() != 0 {
				t.Error("dropped message reached handler")
			}
			n.SetInterceptor(fixedFault{Fault{Drop: true}})
			if _, err := n.Call(context.Background(), "m", "x", Control, "p", 1); !errors.Is(err, ErrInjected) {
				t.Errorf("default drop err = %v", err)
			}
			n.SetInterceptor(fixedFault{Fault{Delay: 20 * time.Millisecond}})
			start := time.Now()
			if _, err := n.Call(context.Background(), "m", "x", Control, "p", 1); err != nil {
				t.Fatal(err)
			}
			if time.Since(start) < 20*time.Millisecond {
				t.Error("delay not applied")
			}
			// A delay longer than the deadline fails the call.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			n.SetInterceptor(fixedFault{Fault{Delay: time.Second}})
			if _, err := n.Call(ctx, "m", "x", Control, "p", 1); err == nil {
				t.Error("delayed past deadline should fail")
			}
		})
	}
}

// Satellite regression: at-least-once duplication delivers twice, bills
// both copies through the cost model and counters, and the caller sees the
// surviving reply even when one copy fails.
func TestConformanceDuplicateBillsBothDeliveries(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			topo := NewTopology()
			topo.Place("m", "r1", "dc1")
			topo.Place("l", "r2", "dc1") // same dc: 4 hops
			model := sim.DefaultCostModel()
			n := nc.mk(t, topo, Options{Model: model})
			var calls atomic.Int32
			n.Register("l", func(context.Context, string, any) (any, error) {
				calls.Add(1)
				return "ok", nil
			})
			n.SetInterceptor(fixedFault{Fault{Duplicate: true}})
			bill := sim.NewBill()
			ctx := storage.WithBill(context.Background(), bill)
			got, err := n.Call(ctx, "m", "l", Read, "p", 1000)
			if err != nil || got != "ok" {
				t.Fatalf("call = %v, %v", got, err)
			}
			if calls.Load() != 2 {
				t.Errorf("handler invoked %d times, want 2", calls.Load())
			}
			want := 2 * model.TransferCost(1000, 4)
			if bill.Time() != want {
				t.Errorf("bill = %v, want %v (both deliveries billed)", bill.Time(), want)
			}
			c := n.Counters()
			if c.Msgs[Read].Value() != 2 || c.Bytes[Read].Value() != 2000 {
				t.Errorf("counters = %d msgs %d bytes, want 2 / 2000", c.Msgs[Read].Value(), c.Bytes[Read].Value())
			}
		})
	}
}

func TestConformanceDuplicateSurvivingReply(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{})
			var calls atomic.Int32
			failOn := func(k int32) Handler {
				return func(context.Context, string, any) (any, error) {
					if calls.Add(1) == k {
						return nil, errors.New("transient")
					}
					return "survived", nil
				}
			}
			n.SetInterceptor(fixedFault{Fault{Duplicate: true}})

			// First delivery fails, duplicate succeeds: the duplicate's reply
			// must surface (this was masked before the fix).
			n.Register("x", failOn(1))
			got, err := n.Call(context.Background(), "m", "x", Control, "p", 1)
			if err != nil || got != "survived" {
				t.Errorf("first-fails: got %v, %v; want surviving reply", got, err)
			}

			// First succeeds, duplicate fails: still a success.
			calls.Store(0)
			n.Register("x", failOn(2))
			got, err = n.Call(context.Background(), "m", "x", Control, "p", 1)
			if err != nil || got != "survived" {
				t.Errorf("second-fails: got %v, %v; want surviving reply", got, err)
			}

			// Both fail: the error surfaces.
			n.Register("x", func(context.Context, string, any) (any, error) {
				return nil, errors.New("hard down")
			})
			if _, err = n.Call(context.Background(), "m", "x", Control, "p", 1); err == nil {
				t.Error("both-fail: want error")
			}
		})
	}
}

func TestConformanceControlBypassesDataSlots(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{DataSlots: 1})
			block := make(chan struct{})
			started := make(chan struct{})
			var once sync.Once
			n.Register("leaf", func(ctx context.Context, from string, payload any) (any, error) {
				if payload.(string) == "slow" {
					once.Do(func() { close(started) })
					<-block
				}
				return "ok", nil
			})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = n.Call(context.Background(), "m", "leaf", Read, "slow", 1)
			}()
			<-started

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			if _, err := n.Call(ctx, "m", "leaf", Write, "fast", 1); err == nil {
				t.Error("data call should time out while slot is held")
			}
			got, err := n.Call(context.Background(), "m", "leaf", Control, "ping", 1)
			if err != nil || got != "ok" {
				t.Errorf("control call = %v, %v", got, err)
			}
			close(block)
			wg.Wait()
		})
	}
}

// Large payloads and replies must survive intact (over TCP this exercises
// the streamed framePayload chain: bodies above 256 KiB span frames).
func TestConformanceLargeStreamingPayload(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{})
			n.Register("leaf", func(ctx context.Context, from string, payload any) (any, error) {
				p := payload.(confPayload)
				return confReply{N: len(p.Blob), Blob: p.Blob}, nil
			})
			blob := make([]byte, 700_000)
			for i := range blob {
				blob[i] = byte(i * 31)
			}
			got, err := n.Call(context.Background(), "m", "leaf", Read, confPayload{Blob: blob}, int64(len(blob)))
			if err != nil {
				t.Fatal(err)
			}
			r := got.(confReply)
			if r.N != len(blob) || len(r.Blob) != len(blob) {
				t.Fatalf("reply sizes = %d, %d", r.N, len(r.Blob))
			}
			for i := range blob {
				if r.Blob[i] != blob[i] {
					t.Fatalf("byte %d corrupted: %d != %d", i, r.Blob[i], blob[i])
				}
			}
		})
	}
}

func TestConformanceConcurrentCalls(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{DataSlots: 4})
			for i := 0; i < 4; i++ {
				name := fmt.Sprintf("leaf%d", i)
				n.Register(name, func(ctx context.Context, from string, payload any) (any, error) {
					p := payload.(confPayload)
					return confReply{N: p.N + 1, Echo: name}, nil
				})
			}
			classes := []Class{Control, Write, Read, Shuffle}
			var wg sync.WaitGroup
			errs := make(chan error, 64)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for k := 0; k < 20; k++ {
						to := fmt.Sprintf("leaf%d", (g+k)%4)
						got, err := n.Call(context.Background(), "m", to, classes[k%4], confPayload{N: k}, 64)
						if err != nil {
							errs <- err
							return
						}
						r := got.(confReply)
						if r.N != k+1 || r.Echo != to {
							errs <- fmt.Errorf("reply %+v for to=%s k=%d", r, to, k)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// confPoison encodes fine and cannot be decoded: over a socket it reaches
// the peer as bytes the peer's codec rejects.
type confPoison struct{ N int }

func (p confPoison) GobEncode() ([]byte, error) { return []byte{byte(p.N)}, nil }
func (p *confPoison) GobDecode([]byte) error    { return errors.New("poison: undecodable payload") }

func init() { RegisterPayload(confPoison{}) }

// A thousand sequential calls of mixed payload types — structs, bare
// strings, nil, a payload big enough to stream in chunks — return the right
// replies, and handler errors in between leave the transport usable. Over
// TCP all of them ride one connection, whose codec stream therefore has to
// stay in step through every one.
func TestConformanceManyMixedCallsOneConnection(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{})
			n.Register("x", func(ctx context.Context, from string, payload any) (any, error) {
				switch p := payload.(type) {
				case nil:
					return nil, nil
				case string:
					if p == "fail" {
						return nil, fmt.Errorf("handler refused: %w", ErrInjected)
					}
					return "echo:" + p, nil
				case confPayload:
					return confReply{N: p.N + len(p.Blob), Echo: p.S}, nil
				case confReply:
					return confPayload{N: -p.N}, nil
				default:
					return nil, fmt.Errorf("unexpected payload %T", payload)
				}
			})
			ctx := context.Background()
			big := make([]byte, maxFrameBody+streamResetBytes)
			for i := 0; i < 1000; i++ {
				var (
					got any
					err error
				)
				switch i % 7 {
				case 0:
					got, err = n.Call(ctx, "m", "x", Control, confPayload{N: i, S: "s"}, 8)
					if r, ok := got.(confReply); err != nil || !ok || r.N != i || r.Echo != "s" {
						t.Fatalf("call %d: %v, %v", i, got, err)
					}
				case 1:
					got, err = n.Call(ctx, "m", "x", Control, fmt.Sprint("str", i), 8)
					if err != nil || got != fmt.Sprint("echo:str", i) {
						t.Fatalf("call %d: %v, %v", i, got, err)
					}
				case 2:
					got, err = n.Call(ctx, "m", "x", Control, nil, 0)
					if err != nil || got != nil {
						t.Fatalf("call %d: %v, %v", i, got, err)
					}
				case 3:
					_, err = n.Call(ctx, "m", "x", Control, "fail", 8)
					if !errors.Is(err, ErrInjected) || !strings.Contains(err.Error(), "handler refused") {
						t.Fatalf("call %d: handler error = %v", i, err)
					}
				case 4:
					got, err = n.Call(ctx, "m", "x", Control, confReply{N: i}, 8)
					if r, ok := got.(confPayload); err != nil || !ok || r.N != -i {
						t.Fatalf("call %d: %v, %v", i, got, err)
					}
				case 5:
					if i%70 != 5 {
						continue // the chunked payload only now and then
					}
					got, err = n.Call(ctx, "m", "x", Control, confPayload{N: 1, Blob: big}, int64(len(big)))
					if r, ok := got.(confReply); err != nil || !ok || r.N != 1+len(big) {
						t.Fatalf("call %d: %v, %v", i, got, err)
					}
				case 6:
					got, err = n.Call(ctx, "m", "x", Control, "", 0)
					if err != nil || got != "echo:" {
						t.Fatalf("call %d: %v, %v", i, got, err)
					}
				}
			}
			if tr, ok := n.(*TCP); ok {
				pool := tr.poolFor(tr.Addr())
				pool.mu.Lock()
				live := len(pool.live)
				pool.mu.Unlock()
				if live != 1 {
					t.Errorf("%d connections opened for sequential calls, want 1", live)
				}
			}
		})
	}
}

// A payload the receiver cannot decode fails that call only. Over TCP the
// connection's stream is poisoned by it: the server says so and hangs up,
// the caller drops the connection, and the next call dials a fresh one.
func TestConformanceUndecodablePayloadRedials(t *testing.T) {
	for _, nc := range netCases() {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk(t, nil, Options{})
			n.Register("x", func(ctx context.Context, from string, payload any) (any, error) {
				return "ok", nil
			})
			ctx := context.Background()
			if got, err := n.Call(ctx, "m", "x", Control, "warm", 1); err != nil || got != "ok" {
				t.Fatalf("warm-up call = %v, %v", got, err)
			}
			tr, wire := n.(*TCP)
			var before *wireConn
			if wire {
				pool := tr.poolFor(tr.Addr())
				pool.mu.Lock()
				before = pool.control[0]
				pool.mu.Unlock()
			}
			_, err := n.Call(ctx, "m", "x", Control, confPoison{N: 1}, 1)
			if wire {
				if err == nil || !strings.Contains(err.Error(), "poison") {
					t.Fatalf("undecodable payload: err = %v, want the decode error", err)
				}
				pool := tr.poolFor(tr.Addr())
				pool.mu.Lock()
				_, alive := pool.live[before]
				idle := len(pool.control)
				pool.mu.Unlock()
				if alive || idle != 0 {
					t.Fatalf("poisoned connection kept: alive=%v idle=%d", alive, idle)
				}
			}
			for i := 0; i < 3; i++ {
				if got, err := n.Call(ctx, "m", "x", Control, "again", 1); err != nil || got != "ok" {
					t.Fatalf("call %d after the poisoned one = %v, %v", i, got, err)
				}
			}
			if wire {
				pool := tr.poolFor(tr.Addr())
				pool.mu.Lock()
				after := pool.control[0]
				live := len(pool.live)
				pool.mu.Unlock()
				if after == before || live != 1 {
					t.Fatalf("no fresh connection after the poisoned one (live=%d)", live)
				}
			}
		})
	}
}
