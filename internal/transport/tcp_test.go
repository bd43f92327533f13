package transport

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestTCP(t *testing.T, topo *Topology, opt Options, tcpOpt TCPOptions) *TCP {
	t.Helper()
	tr, err := NewTCP(topo, opt, tcpOpt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// Two processes: t1 hosts the master, t2 hosts two leaves. Static peer
// config points t1 at t2; the handshake teaches t1 about every node behind
// that address.
func TestTCPCrossProcessDiscovery(t *testing.T) {
	t1 := newTestTCP(t, nil, Options{}, TCPOptions{})
	t2 := newTestTCP(t, nil, Options{}, TCPOptions{})
	t2.Register("leaf1", func(ctx context.Context, from string, payload any) (any, error) {
		return "pong:" + payload.(string), nil
	})
	t2.Register("leaf2", func(ctx context.Context, from string, payload any) (any, error) {
		return "two", nil
	})
	t1.Register("master", func(ctx context.Context, from string, payload any) (any, error) {
		return nil, nil
	})

	t1.AddPeer("leaf1", t2.Addr())
	got, err := t1.Call(context.Background(), "master", "leaf1", Control, "hi", 2)
	if err != nil || got != "pong:hi" {
		t.Fatalf("cross-process call = %v, %v", got, err)
	}
	// leaf2 was never configured, but the handshake with t2 advertised it.
	got, err = t1.Call(context.Background(), "master", "leaf2", Control, "x", 1)
	if err != nil || got != "two" {
		t.Fatalf("discovered-node call = %v, %v", got, err)
	}

	// Explicit discovery works without any static peer entry.
	t3 := newTestTCP(t, nil, Options{}, TCPOptions{})
	nodes, err := t3.Discover(context.Background(), t2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 {
		t.Fatalf("discovered %v, want leaf1+leaf2", nodes)
	}
	if got, err := t3.Call(context.Background(), "probe", "leaf2", Control, "x", 1); err != nil || got != "two" {
		t.Fatalf("post-discovery call = %v, %v", got, err)
	}
}

// A raw connection speaking the wrong codec version must be refused during
// the handshake.
func TestTCPHandshakeVersionMismatch(t *testing.T) {
	tr := newTestTCP(t, nil, Options{}, TCPOptions{})
	c, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hello := frame{kind: frameHello, body: helloMsg{Version: CodecVersion + 99}.append(nil)}
	if _, err := c.Write(appendFrame(nil, hello)); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	var buf []byte
	f, err := readFrame(bufio.NewReader(c), &buf)
	if err != nil {
		t.Fatalf("want an error frame, got %v", err)
	}
	if f.kind != frameError {
		t.Fatalf("frame kind = %d, want frameError", f.kind)
	}
	if !strings.Contains(decodeErrorFrame(f).Error(), "version") {
		t.Errorf("err = %v", decodeErrorFrame(f))
	}
}

// Context cancellation mid-call unblocks the caller even with no deadline.
func TestTCPCancelInFlight(t *testing.T) {
	srv := newTestTCP(t, nil, Options{}, TCPOptions{})
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	srv.Register("leaf", func(ctx context.Context, from string, payload any) (any, error) {
		close(started)
		<-block
		return "late", nil
	})
	cli := newTestTCP(t, nil, Options{}, TCPOptions{})
	cli.AddPeer("leaf", srv.Addr())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cli.Call(ctx, "m", "leaf", Control, "x", 1)
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock the call")
	}
}

func TestTCPCloseUnblocksAndRefuses(t *testing.T) {
	tr, err := NewTCP(nil, Options{}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr.Register("x", func(context.Context, string, any) (any, error) { return "ok", nil })
	if _, err := tr.Call(context.Background(), "m", "x", Control, "p", 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("second close = %v", err)
	}
	if _, err := tr.Call(context.Background(), "m", "x", Control, "p", 1); err == nil {
		t.Error("call after close should fail")
	}
}

// gateInterceptor holds every call between the endpoint snapshot and
// delivery, so the restart below is guaranteed to land in that window.
type gateInterceptor struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateInterceptor) Intercept(ctx context.Context, from, to string, class Class, size int64) Fault {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return Fault{}
}

// Satellite regression (run under -race): a Deregister+Register (leaf
// restart) while a Call is in flight must not deliver to the dead handler —
// the generation check at delivery time fails the call instead.
func TestFabricStaleEndpointAcrossRestart(t *testing.T) {
	f := NewFabric(nil, Options{})
	var oldCalls, newCalls atomic.Int32
	f.Register("leaf", func(context.Context, string, any) (any, error) {
		oldCalls.Add(1)
		return "old", nil
	})
	gate := &gateInterceptor{entered: make(chan struct{}), release: make(chan struct{})}
	f.SetInterceptor(gate)

	done := make(chan error, 1)
	go func() {
		_, err := f.Call(context.Background(), "m", "leaf", Control, "x", 1)
		done <- err
	}()
	<-gate.entered
	// Restart the leaf while the call is stalled pre-delivery.
	f.Deregister("leaf")
	f.Register("leaf", func(context.Context, string, any) (any, error) {
		newCalls.Add(1)
		return "new", nil
	})
	close(gate.release)

	err := <-done
	if !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("stale delivery: err = %v, want ErrUnknownNode", err)
	}
	if oldCalls.Load() != 0 {
		t.Error("message delivered to the dead (pre-restart) handler")
	}
	if newCalls.Load() != 0 {
		t.Error("message delivered to the new incarnation without a fresh Call")
	}
	// A fresh call reaches the new incarnation.
	f.SetInterceptor(nil)
	got, err := f.Call(context.Background(), "m", "leaf", Control, "x", 1)
	if err != nil || got != "new" {
		t.Errorf("post-restart call = %v, %v", got, err)
	}
}

// A reply the server cannot encode fails the call with the encoder's error
// and retires the connection; the next call dials again and succeeds.
func TestTCPUnencodableReplyRetiresConnection(t *testing.T) {
	type unregistered struct{ N int }
	tr := newTestTCP(t, nil, Options{}, TCPOptions{})
	tr.Register("x", func(ctx context.Context, from string, payload any) (any, error) {
		if payload.(string) == "bad" {
			return unregistered{N: 1}, nil
		}
		return "ok", nil
	})
	ctx := context.Background()
	if got, err := tr.Call(ctx, "m", "x", Control, "good", 1); err != nil || got != "ok" {
		t.Fatalf("warm-up = %v, %v", got, err)
	}
	if _, err := tr.Call(ctx, "m", "x", Control, "bad", 1); err == nil || !strings.Contains(err.Error(), "unregistered") {
		t.Fatalf("unencodable reply: err = %v", err)
	}
	pool := tr.poolFor(tr.Addr())
	pool.mu.Lock()
	live := len(pool.live)
	pool.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d connections kept after an unencodable reply", live)
	}
	if got, err := tr.Call(ctx, "m", "x", Control, "good", 1); err != nil || got != "ok" {
		t.Fatalf("call after redial = %v, %v", got, err)
	}
}
