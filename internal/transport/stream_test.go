package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
)

// pipeConns returns the two ends of one in-memory connection as wireConns.
func pipeConns(t *testing.T) (client, server *wireConn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return newWireConn(a), newWireConn(b)
}

// One connection carries many messages of several kinds — gob and packed,
// a body long enough to travel as a chain — and every one comes back intact;
// the buffers a big message grew are not kept.
func TestStreamManyMessages(t *testing.T) {
	cli, srv := pipeConns(t)
	msgs := []any{
		confPayload{N: 1, S: "a"},
		"a bare string",
		confPacked{N: 2, S: "packed"},
		confReply{Echo: "e", N: 2},
		confPayload{N: 5, Blob: bytes.Repeat([]byte{9}, 2*maxFrameBody+17)}, // three frames
		confPacked{N: 6, Blob: bytes.Repeat([]byte{3}, maxFrameBody)},       // two frames: the tag tips it over
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
			if cap(cli.out) > keepWriteBuf {
				errc <- fmt.Errorf("idle write buffer retains %d bytes", cap(cli.out))
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
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d corrupted", i)
		}
		if cap(srv.in) > keepReadBuf {
			t.Fatalf("message %d: idle read buffer retains %d bytes", i, cap(srv.in))
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// The read buffer is reused from message to message, and nothing decoded
// aliases it: the first value is intact after the second message overwrote
// the buffer it was read from.
func TestDecodedPayloadOutlivesReadBuffer(t *testing.T) {
	cli, srv := pipeConns(t)
	first, second := confPacked{N: 1, S: "first", Blob: []byte("aaaa")}, confPacked{N: 2, S: "other", Blob: []byte("zzzz")}
	go func() {
		for _, m := range []any{first, second} {
			if _, err := cli.queuePayload(byte(Read), m); err != nil || cli.flush() != nil {
				return
			}
		}
	}()
	got1, _, err := srv.readPayload()
	if err != nil {
		t.Fatal(err)
	}
	buf := &srv.in[0]
	got2, _, err := srv.readPayload()
	if err != nil {
		t.Fatal(err)
	}
	if &srv.in[0] != buf {
		t.Fatal("the second message did not reuse the read buffer")
	}
	if !reflect.DeepEqual(got1, first) || !reflect.DeepEqual(got2, second) {
		t.Fatalf("decoded %+v and %+v, want %+v and %+v", got1, got2, first, second)
	}
}

func payloadFrame(flags byte, body []byte) []byte {
	return appendFrame(nil, frame{kind: framePayload, class: byte(Read), flags: flags, body: body})
}

func readChainOf(data []byte) ([]byte, error) {
	return readChain(bufio.NewReader(bytes.NewReader(data)), nil)
}

func TestChunkReaderChains(t *testing.T) {
	good := append(payloadFrame(flagMore, []byte("hello ")), payloadFrame(flagMore, nil)...)
	good = append(good, payloadFrame(0, []byte("world"))...)
	if got, err := readChainOf(good); err != nil || string(got) != "hello world" {
		t.Fatalf("chain = %q, %v", got, err)
	}
	// The reader stops at the end of its chain: what follows is the next frame.
	if got, err := readChainOf(append(good, payloadFrame(0, []byte("next"))...)); err != nil || string(got) != "hello world" {
		t.Fatalf("chain with a successor = %q, %v", got, err)
	}
	// appendChain cuts what readChain joins.
	long := bytes.Repeat([]byte("0123456789"), maxFrameBody/4)
	if got, err := readChainOf(appendChain(nil, byte(Read), long)); err != nil || !bytes.Equal(got, long) {
		t.Fatalf("long chain: %d bytes, %v", len(got), err)
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
		_, err := readChainOf(tc.data)
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
	h := callHeader{From: "master", To: "leaf-7", Class: Shuffle, Size: -5, Deadline: 1_700_000_000_123_456_789}
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
// frame, then a payload chain, then the same bytes through the whole stack
// down to the payload decoder. Whatever the bytes: no panic; frame and chain
// errors are ErrProtocol or a truncation; the chain never yields more bytes
// than the input held; and a payload that decodes re-encodes. Every message
// is self-contained, so each input starts from the state every connection
// is always in.
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
	for _, v := range []any{confPayload{N: 1, S: "s", Blob: []byte{1, 2}}, confPacked{N: 7, S: "p", Blob: []byte{3}}} {
		if body, err := EncodePayload(v); err == nil {
			f.Add(payloadFrame(0, body)) // a decodable gob message, a decodable packed one
		}
	}
	f.Add(appendFrame(nil, frame{kind: frameCall, body: callHeader{From: "a", To: "b"}.append(nil)}))

	typed := func(err error) bool {
		return errors.Is(err, ErrProtocol) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf []byte
		if fr, err := readFrame(bufio.NewReader(bytes.NewReader(data)), &buf); err != nil {
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
		got, err := readChainOf(data)
		if err != nil && !typed(err) {
			t.Fatalf("chain reader: untyped error %v", err)
		}
		if len(got) > len(data) {
			t.Fatalf("chain yielded %d bytes from %d bytes of input", len(got), len(data))
		}
		// The whole read side, payload decoder included: any error will do,
		// no panic, and what decodes encodes again.
		wc := &wireConn{br: bufio.NewReader(bytes.NewReader(data))}
		if v, _, err := wc.readPayload(); err == nil && v != nil {
			if _, err := EncodePayload(v); err != nil {
				t.Fatalf("decoded %T does not re-encode: %v", v, err)
			}
		}
	})
}

// mallocs reports the heap allocations f makes, in this process, both ends
// of a loopback call included.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// A packed call costs the same on a fresh connection as on one that has
// carried a hundred: there is no per-connection codec to warm up.
func TestTCPWarmCallAllocations(t *testing.T) {
	tr := newTestTCP(t, nil, Options{}, TCPOptions{})
	tr.Register("x", func(ctx context.Context, from string, payload any) (any, error) {
		if p, ok := payload.(confPacked); ok {
			return confPacked{N: p.N + 1}, nil
		}
		return nil, nil
	})
	ctx := context.Background()
	call := func() {
		if _, err := tr.Call(ctx, "m", "x", Control, confPacked{N: 1, S: "ping"}, 16); err != nil {
			t.Fatal(err)
		}
	}
	// Dial and handshake with a nil payload, so that the call measured
	// next is the first payload either end of the connection handles.
	if _, err := tr.Call(ctx, "m", "x", Control, nil, 0); err != nil {
		t.Fatal(err)
	}
	cold := mallocs(call)
	for range 98 {
		call()
	}
	warm := mallocs(call)
	if cold >= 60 || warm >= 60 {
		t.Fatalf("the first packed call on a connection costs %d allocations and the hundredth %d, want < 60 each", cold, warm)
	}
	if live := len(tr.poolFor(tr.Addr()).live); live != 1 {
		t.Fatalf("%d connections, want the one", live)
	}
}
