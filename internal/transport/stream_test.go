package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
)

// pipeConns returns the two ends of one in-memory connection as wireConns.
func pipeConns(t *testing.T) (client, server *wireConn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return newWireConn(a), newWireConn(b)
}

// One connection carries many messages of several types; every one comes
// back intact, bodies above maxFrameBody stream as chains, and a payload
// above streamResetBytes restarts the codec pair at both ends.
func TestStreamManyMessagesAndReset(t *testing.T) {
	cli, srv := pipeConns(t)
	msgs := []any{
		confPayload{N: 1, S: "a"},
		"a bare string",
		confReply{Echo: "e", N: 2},
		confPayload{N: 3, Blob: bytes.Repeat([]byte{7}, streamResetBytes+1)}, // resets
		confPayload{N: 4, S: "after the reset"},
		confPayload{N: 5, Blob: bytes.Repeat([]byte{9}, 2*maxFrameBody+17)}, // three chunks, resets
		confReply{Echo: "last"},
	}
	errc := make(chan error, 1)
	go func() {
		for _, m := range msgs {
			if _, err := cli.queuePayload(byte(Read), m); err != nil {
				errc <- err
				return
			}
			if err := cli.flush(); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i, want := range msgs {
		got, n, err := srv.readPayload()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if n <= 0 {
			t.Fatalf("message %d: %d payload bytes", i, n)
		}
		switch w := want.(type) {
		case confPayload:
			g := got.(confPayload)
			if g.N != w.N || g.S != w.S || !bytes.Equal(g.Blob, w.Blob) {
				t.Fatalf("message %d corrupted", i)
			}
		default:
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("message %d = %v, want %v", i, got, want)
			}
		}
		big := i == 3 || i == 5
		if (srv.dec == nil) != big {
			t.Fatalf("message %d: decoder dropped = %v, want %v", i, srv.dec == nil, big)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if cli.out.buf != nil && cap(cli.out.buf) > keepWriteBuf {
		t.Errorf("idle write buffer retains %d bytes", cap(cli.out.buf))
	}
}

func payloadFrame(flags byte, body []byte) []byte {
	return appendFrame(nil, frame{kind: framePayload, class: byte(Read), flags: flags, body: body})
}

func readChain(data []byte) ([]byte, error) {
	r := chunkReader{r: bufio.NewReader(bytes.NewReader(data))}
	r.begin()
	var out []byte
	buf := make([]byte, 7)
	for {
		// Alternate ReadByte and Read, as gob does.
		b, err := r.ReadByte()
		if err != nil {
			if err == io.EOF {
				return out, r.end()
			}
			return out, err
		}
		out = append(out, b)
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err != nil && err != io.EOF {
			return out, err
		}
	}
}

func TestChunkReaderChains(t *testing.T) {
	good := append(payloadFrame(flagMore, []byte("hello ")), payloadFrame(flagMore, nil)...)
	good = append(good, payloadFrame(0, []byte("world"))...)
	if got, err := readChain(good); err != nil || string(got) != "hello world" {
		t.Fatalf("chain = %q, %v", got, err)
	}
	// The reader stops at the end of its chain: what follows is the next frame.
	if got, err := readChain(append(good, payloadFrame(0, []byte("next"))...)); err != nil || string(got) != "hello world" {
		t.Fatalf("chain with a successor = %q, %v", got, err)
	}

	skew := payloadFrame(0, []byte("x"))
	skew[2] = CodecVersion + 1
	oversized := payloadFrame(0, nil)
	binary.BigEndian.PutUint32(oversized[6:], maxFrameBody+1)
	badMagic := payloadFrame(0, []byte("x"))
	badMagic[0] = 0
	for name, tc := range map[string]struct {
		data  []byte
		proto bool
	}{
		"truncated mid-chunk":   {good[:len(good)-2], false},
		"truncated mid-header":  {good[:frameHeaderLen+6+4], false},
		"chain never ends":      {payloadFrame(flagMore, []byte("abc")), false},
		"wrong kind in chain":   {append(payloadFrame(flagMore, []byte("a")), appendFrame(nil, frame{kind: frameReply})...), true},
		"version skew":          {skew, true},
		"oversized length":      {oversized, true},
		"bad magic":             {badMagic, true},
		"empty input":           {nil, false},
		"call frame, not chain": {appendFrame(nil, frame{kind: frameCall, body: []byte("x")}), true},
	} {
		_, err := readChain(tc.data)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if tc.proto != errors.Is(err, ErrProtocol) {
			t.Errorf("%s: err = %v, protocol error = %v", name, err, !tc.proto)
		}
		if !tc.proto && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v, want a truncation error", name, err)
		}
	}
}

func TestPackedHeadersRoundTripAndTruncation(t *testing.T) {
	h := callHeader{From: "master", To: "leaf-7", Class: Shuffle, Size: -5, Baggage: 1 << 40}
	b := h.append(nil)
	if got, err := parseCallHeader(b); err != nil || got != h {
		t.Fatalf("call header = %+v, %v", got, err)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := parseCallHeader(b[:cut]); !errors.Is(err, ErrProtocol) {
			t.Errorf("call header cut at %d: %v", cut, err)
		}
	}
	if _, err := parseCallHeader(append(b, 0)); !errors.Is(err, ErrProtocol) {
		t.Error("trailing byte after call header accepted")
	}

	hello := helloMsg{Version: CodecVersion, From: "n"}
	if got, err := parseHello(hello.append(nil)); err != nil || got != hello {
		t.Fatalf("hello = %+v, %v", got, err)
	}
	ack := helloAck{Version: CodecVersion, Nodes: []string{"a", "", "leaf3"}}
	ab := ack.append(nil)
	got, err := parseHelloAck(ab)
	if err != nil || got.Version != ack.Version || len(got.Nodes) != 3 || got.Nodes[2] != "leaf3" {
		t.Fatalf("hello ack = %+v, %v", got, err)
	}
	for cut := 0; cut < len(ab); cut++ {
		if _, err := parseHelloAck(ab[:cut]); !errors.Is(err, ErrProtocol) {
			t.Errorf("hello ack cut at %d: %v", cut, err)
		}
	}
	// A node count the body cannot hold is refused before it is allocated.
	huge := binary.AppendUvarint(binary.AppendUvarint(nil, CodecVersion), 1<<50)
	if _, err := parseHelloAck(huge); !errors.Is(err, ErrProtocol) {
		t.Errorf("huge node count: %v", err)
	}
}

// FuzzWireStream feeds arbitrary bytes to a connection's read side — a
// frame, then a payload chain through the chunk reader, then the same bytes
// through the whole stack down to the gob decoder. Whatever the bytes:
// no panic; frame and chain errors are ErrProtocol or a truncation; and the
// chain never yields more bytes than the input held.
func FuzzWireStream(f *testing.F) {
	chain := append(payloadFrame(flagMore, []byte("hello ")), payloadFrame(0, []byte("world"))...)
	f.Add(chain)
	f.Add(chain[:len(chain)-3])                                                                      // truncation mid-chunk
	f.Add(append(payloadFrame(flagMore, []byte("a")), appendFrame(nil, frame{kind: frameError})...)) // wrong kind inside a chain
	over := payloadFrame(0, nil)
	binary.BigEndian.PutUint32(over[6:], 1<<31)
	f.Add(over) // oversized length
	skew := payloadFrame(0, []byte("x"))
	skew[2] = 1
	f.Add(skew) // version skew
	if body, err := EncodePayload(confPayload{N: 1, S: "s", Blob: []byte{1, 2}}); err == nil {
		f.Add(payloadFrame(0, body)) // a decodable gob message
	}
	f.Add(appendFrame(nil, frame{kind: frameCall, body: callHeader{From: "a", To: "b"}.append(nil)}))

	typed := func(err error) bool {
		return errors.Is(err, ErrProtocol) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf []byte
		if fr, err := readFrame(bytes.NewReader(data), &buf); err != nil {
			if !typed(err) {
				t.Fatalf("readFrame: untyped error %v", err)
			}
		} else {
			if len(fr.body) > len(data) {
				t.Fatalf("frame body of %d bytes from %d bytes of input", len(fr.body), len(data))
			}
			if fr.kind == frameCall {
				if _, err := parseCallHeader(fr.body); err != nil && !errors.Is(err, ErrProtocol) {
					t.Fatalf("parseCallHeader: untyped error %v", err)
				}
			}
		}
		got, err := readChain(data)
		if err != nil && !typed(err) {
			t.Fatalf("chunk reader: untyped error %v", err)
		}
		if len(got) > len(data) {
			t.Fatalf("chain yielded %d bytes from %d bytes of input", len(got), len(data))
		}
		// The whole read side, gob included: any error will do, no panic.
		wc := &wireConn{br: bufio.NewReader(bytes.NewReader(data))}
		wc.in.r = wc.br
		wc.readPayload()
	})
}

// A warmed small call must not fall back to per-message codec compilation:
// that costs several hundred allocations, a call on a warm stream a few
// dozen.
func TestTCPWarmCallAllocations(t *testing.T) {
	tr := newTestTCP(t, nil, Options{}, TCPOptions{})
	tr.Register("x", func(ctx context.Context, from string, payload any) (any, error) {
		return confReply{N: payload.(confPayload).N + 1}, nil
	})
	ctx := context.Background()
	call := func() {
		if _, err := tr.Call(ctx, "m", "x", Control, confPayload{N: 1, S: "ping"}, 16); err != nil {
			t.Fatal(err)
		}
	}
	call()
	if allocs := testing.AllocsPerRun(200, call); allocs >= 60 {
		t.Fatalf("a warm small call costs %.0f allocations, want < 60", allocs)
	}
}

// Connections a burst leaves behind keep their socket but not their stream
// state, at either end, and still work afterwards.
func TestPoolStripsSurplusConnections(t *testing.T) {
	tr := newTestTCP(t, nil, Options{}, TCPOptions{})
	release := make(chan struct{})
	arrived := make(chan struct{}, 64)
	tr.Register("x", func(ctx context.Context, from string, payload any) (any, error) {
		if payload.(confPayload).S == "hold" {
			arrived <- struct{}{}
			<-release
		}
		return confReply{N: 1}, nil
	})
	const burst = hotConnsPerLane + 5
	done := make(chan error, burst)
	for i := 0; i < burst; i++ {
		go func() {
			_, err := tr.Call(context.Background(), "m", "x", Control, confPayload{S: "hold"}, 1)
			done <- err
		}()
	}
	for i := 0; i < burst; i++ {
		<-arrived
	}
	close(release)
	for i := 0; i < burst; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	pool := tr.poolFor(tr.Addr())
	pool.mu.Lock()
	hot, idle := 0, len(pool.control)
	for _, wc := range pool.control {
		if wc.hasState() {
			hot++
		}
	}
	pool.mu.Unlock()
	if idle != burst || hot != hotConnsPerLane {
		t.Fatalf("%d idle connections, %d with stream state; want %d and %d", idle, hot, burst, hotConnsPerLane)
	}
	// Another burst reaches the stripped connections: they must still work.
	for i := 0; i < burst; i++ {
		go func() {
			_, err := tr.Call(context.Background(), "m", "x", Control, confPayload{S: "go"}, 1)
			done <- err
		}()
	}
	for i := 0; i < burst; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
