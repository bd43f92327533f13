package transport

// Wire codec for the TCP transport (CodecVersion): length-prefixed frames with
// a version byte, hand-packed handshake and call headers, and a gob payload
// envelope. Every cluster RPC payload and reply type must be registered via
// RegisterPayload before it can cross a socket; the in-process Fabric passes
// values by reference and never touches this file, which is exactly why the
// payload round-trip conformance test exists — it catches types that only
// break once they meet the wire.
//
// Each connection owns one long-lived gob encoder and decoder (wireConn, below)
// that write and read payloads straight through the framePayload chunk
// chain, so a type's descriptor crosses a connection once and its decoder is
// compiled once. EncodePayload/DecodePayload are the stateless one-shot form
// of the same envelope, for tests, spill files and benchmarks; the transport
// itself never calls them.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sort"
	"sync"
)

// CodecVersion is the wire protocol version spoken by the TCP transport.
// Both ends carry it in every frame header and refuse mismatches during the
// handshake; bump it whenever the frame layout or payload encoding changes
// incompatibly. Version 2: per-connection payload streams, binary call
// header and handshake, columnar row/group batches. Version 3: a stem reply
// carries its group folded (prefix + unmerged tail), never one result per
// task, and stem jobs lost the flag that chose. Version 4: a shuffle map task
// is an ordinary task message carrying a route; its own request and reply
// types are gone. Version 5: stem jobs carry no hedge plan (backup leaves,
// hedge delay) and task statuses no wall time or hedge flags. Version 6:
// partitions carry their generation and catalog entries their version.
// Version 7: a stem sends each leaf one batch of tasks per job (task batch
// and batch reply replace the per-task message and reply), and device byte
// counts travel as a fixed array. Version 8: a map task attempt sends each
// reducer one shuffle message with a part per partition; the shuffle frame
// and end-marker are gone.
const CodecVersion = 8

const frameMagic = 0xFE15

// Frame kinds.
const (
	frameHello    byte = iota + 1 // client → server, first frame on a conn
	frameHelloAck                 // server → client: hosted node names
	frameCall                     // packed callHeader, then payload chunks
	framePayload                  // one chunk of a payload/reply body
	frameReply                    // empty body; reply chunks follow
	frameError                    // [code byte] + error text
	frameStrip                    // client → server: drop this conn's stream state
)

// Frame flags.
const (
	flagMore       byte = 1 << iota // another chunk of this body follows
	flagNilPayload                  // the payload/reply is a nil interface
	flagClose                       // frameError: the sender closes the conn
	flagReset                       // last chunk: this direction's codec stream restarts
)

// maxFrameBody bounds one frame's body; larger bodies (big Read results,
// shuffle frames) stream as a chain of flagMore frames so a bulk reply
// never occupies the wire in one indivisible write.
const maxFrameBody = 256 << 10

// frameHeaderLen is the fixed frame prefix:
// magic(2) version(1) kind(1) class(1) flags(1) bodyLen(4).
const frameHeaderLen = 10

// ErrProtocol marks bytes off the wire that are not a well-formed frame,
// header or handshake: bad magic, version skew, an oversized length, the
// wrong frame kind inside a payload chain, a truncated packed header.
var ErrProtocol = errors.New("transport: protocol error")

func protoErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

type frame struct {
	kind  byte
	class byte
	flags byte
	body  []byte
}

// appendFrameHeader appends a frame header announcing an n-byte body.
func appendFrameHeader(dst []byte, kind, class, flags byte, n int) []byte {
	dst = binary.BigEndian.AppendUint16(dst, frameMagic)
	dst = append(dst, CodecVersion, kind, class, flags)
	return binary.BigEndian.AppendUint32(dst, uint32(n))
}

// appendFrame appends one whole frame.
func appendFrame(dst []byte, f frame) []byte {
	dst = appendFrameHeader(dst, f.kind, f.class, f.flags, len(f.body))
	return append(dst, f.body...)
}

// readFrameHeader reads and validates one frame header, returning the frame
// (body unset) and the announced body length.
func readFrameHeader(r io.Reader) (frame, int, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, 0, err
	}
	if m := binary.BigEndian.Uint16(hdr[0:2]); m != frameMagic {
		return frame{}, 0, protoErr("bad frame magic %#x", m)
	}
	if hdr[2] != CodecVersion {
		return frame{}, 0, protoErr("peer speaks codec version %d, want %d", hdr[2], CodecVersion)
	}
	n := binary.BigEndian.Uint32(hdr[6:10])
	if n > maxFrameBody {
		return frame{}, 0, protoErr("frame body %d exceeds max %d", n, maxFrameBody)
	}
	return frame{kind: hdr[3], class: hdr[4], flags: hdr[5]}, int(n), nil
}

// readFrame reads one frame whose body lands in *buf, grown as needed and
// reused from frame to frame: the returned body is valid until the next
// call with the same buffer.
func readFrame(r io.Reader, buf *[]byte) (frame, error) {
	f, n, err := readFrameHeader(r)
	if err != nil {
		return frame{}, err
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	f.body = (*buf)[:n]
	if _, err := io.ReadFull(r, f.body); err != nil {
		return frame{}, err
	}
	return f, nil
}

// callHeader precedes a call's payload chunks on the wire.
type callHeader struct {
	From  string
	To    string
	Class Class
	Size  int64 // simulated payload size, billed server-side counters
	// Baggage is the caller's in-process context relay ID (see baggage.go);
	// meaningful only when the call loops back into the caller's own process.
	Baggage uint64
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(b []byte) (string, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return "", nil, protoErr("truncated string")
	}
	return string(b[k : k+int(n)]), b[k+int(n):], nil
}

func (h callHeader) append(dst []byte) []byte {
	dst = appendString(dst, h.From)
	dst = appendString(dst, h.To)
	dst = append(dst, byte(h.Class))
	dst = binary.AppendVarint(dst, h.Size)
	return binary.AppendUvarint(dst, h.Baggage)
}

func parseCallHeader(b []byte) (h callHeader, err error) {
	if h.From, b, err = readString(b); err != nil {
		return h, err
	}
	if h.To, b, err = readString(b); err != nil {
		return h, err
	}
	if len(b) < 1 || Class(b[0]) > Shuffle {
		return h, protoErr("bad call class")
	}
	h.Class, b = Class(b[0]), b[1:]
	var k int
	if h.Size, k = binary.Varint(b); k <= 0 {
		return h, protoErr("truncated call header")
	}
	b = b[k:]
	if h.Baggage, k = binary.Uvarint(b); k <= 0 || k != len(b) {
		return h, protoErr("truncated call header")
	}
	return h, nil
}

// helloMsg opens every connection; helloAck answers with the node names
// hosted behind the listener (discovery: dialing any peer address tells you
// which cluster members answer there).
type helloMsg struct {
	Version int
	From    string // dialing process's first registered node, informational
}

type helloAck struct {
	Version int
	Nodes   []string
}

func (h helloMsg) append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(h.Version))
	return appendString(dst, h.From)
}

func parseHello(b []byte) (h helloMsg, err error) {
	v, k := binary.Uvarint(b)
	if k <= 0 {
		return h, protoErr("truncated hello")
	}
	h.Version = int(v)
	if h.From, b, err = readString(b[k:]); err == nil && len(b) != 0 {
		err = protoErr("trailing bytes after hello")
	}
	return h, err
}

func (a helloAck) append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(a.Version))
	dst = binary.AppendUvarint(dst, uint64(len(a.Nodes)))
	for _, n := range a.Nodes {
		dst = appendString(dst, n)
	}
	return dst
}

func parseHelloAck(b []byte) (a helloAck, err error) {
	v, k := binary.Uvarint(b)
	if k <= 0 {
		return a, protoErr("truncated hello ack")
	}
	a.Version, b = int(v), b[k:]
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) { // every name occupies at least a byte
		return a, protoErr("truncated hello ack")
	}
	b = b[k:]
	a.Nodes = make([]string, n)
	for i := range a.Nodes {
		if a.Nodes[i], b, err = readString(b); err != nil {
			return a, err
		}
	}
	if len(b) != 0 {
		return a, protoErr("trailing bytes after hello ack")
	}
	return a, nil
}

// --- payload envelope ------------------------------------------------------

// envelope wraps a payload so gob can carry any registered concrete type
// (and nil) behind a single static wire type.
type envelope struct {
	P any
}

var payloadReg struct {
	sync.Mutex
	types map[string]reflect.Type
}

// RegisterPayload registers a payload or reply type with the wire codec.
// Pass a value of the concrete type that crosses Call (the same concrete
// type the receiver type-asserts): RegisterPayload(pingMsg{}),
// RegisterPayload(&sqlparser.Literal{}), …  Registration is idempotent and
// must happen identically in every process (init-time in the owning
// package).
func RegisterPayload(v any) {
	gob.Register(v)
	t := reflect.TypeOf(v)
	payloadReg.Lock()
	if payloadReg.types == nil {
		payloadReg.types = make(map[string]reflect.Type)
	}
	payloadReg.types[t.String()] = t
	payloadReg.Unlock()
}

// RegisteredPayloads returns every registered concrete payload type, sorted
// by name. The payload round-trip conformance test walks this list.
func RegisteredPayloads() []reflect.Type {
	payloadReg.Lock()
	defer payloadReg.Unlock()
	names := make([]string, 0, len(payloadReg.types))
	for n := range payloadReg.types {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]reflect.Type, 0, len(names))
	for _, n := range names {
		out = append(out, payloadReg.types[n])
	}
	return out
}

// EncodePayload serializes a payload (or reply) as one self-contained
// message: the stateless form of the envelope the connections stream.
func EncodePayload(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(envelope{P: v}); err != nil {
		return nil, fmt.Errorf("transport: encode %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// DecodePayload reverses EncodePayload.
func DecodePayload(b []byte) (any, error) {
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&env); err != nil {
		return nil, fmt.Errorf("transport: decode payload: %w", err)
	}
	return env.P, nil
}

// --- per-connection payload streams ----------------------------------------

// A wireConn is one end of a framed connection — a pooled client connection
// or a serveConn loop — and owns one long-lived gob encoder and one decoder
// for the payloads it sends and receives, writing and reading through the
// payload chains of stream.go. Type descriptors therefore cross a connection
// once, and each side compiles a type's codec once.
//
// The price is that the two ends share state: after any encode or decode
// error, a malformed chain, or a call abandoned half-way, the stream
// positions of the two ends can no longer be trusted. Such a connection is
// poisoned — closed, never reused — and the next call dials a fresh one.
//
// Stream state costs memory: a gob encoder and decoder each keep a buffer
// the size of the largest message they have handled, and a decoder keeps the
// compiled codec of every type it has seen (tens of KiB for a plan-carrying
// message). Two rules keep that from piling up on idle connections. A
// payload larger than streamResetBytes ends with flagReset: both ends then
// drop that direction's codec pair and the next message starts a fresh
// stream, so a connection never pins the bulk result it once carried. And
// the pool strips connections beyond the few it keeps hot (pool.go): a
// frameStrip tells the server end to drop its codecs too, and whichever
// call next reaches that connection pays for its types again.

const (
	// readBufSize is each connection's read buffer: headers and small
	// bodies are parsed out of it, bulk chunk bodies bypass it.
	readBufSize = 2 << 10
	// keepWriteBuf is the largest write buffer an idle connection retains.
	keepWriteBuf = 16 << 10
	// streamResetBytes is the payload size past which a direction's codec
	// pair is dropped after the message: above an ordinary shuffle frame,
	// below what a pooled connection may be left holding.
	streamResetBytes = 32 << 10
)

// wireConn is one framed connection, dedicated to a single in-flight call
// at a time (checkout → request/reply → return).
type wireConn struct {
	c    net.Conn
	br   *bufio.Reader
	in   chunkReader
	out  chunkWriter
	enc  *gob.Encoder // nil until the first payload out, and after a reset
	dec  *gob.Decoder // nil until the first payload in, and after a reset
	env  envelope     // reused so that Encode boxes nothing per message
	body []byte       // reused body buffer of non-payload frames
}

func newWireConn(c net.Conn) *wireConn {
	wc := &wireConn{c: c, br: bufio.NewReaderSize(c, readBufSize)}
	wc.in.r = wc.br
	wc.out.w, wc.out.open = c, -1
	return wc
}

// hasState reports whether the connection holds a codec stream.
func (wc *wireConn) hasState() bool { return wc.enc != nil || wc.dec != nil }

// strip drops the connection's stream state and write buffer; the codecs
// are rebuilt by the next payload in each direction.
func (wc *wireConn) strip() {
	wc.enc, wc.dec = nil, nil
	wc.out.buf, wc.body = nil, nil
}

// queueFrame buffers one non-payload frame behind whatever is already
// queued; nothing reaches the socket before flush.
func (wc *wireConn) queueFrame(f frame) { wc.out.buf = appendFrame(wc.out.buf, f) }

// queuePayload encodes v on the connection's stream as the payload chain of
// the frame just queued, and returns the payload bytes it framed.
func (wc *wireConn) queuePayload(class byte, v any) (int64, error) {
	wc.out.class = class
	before := wc.out.n
	if wc.enc == nil {
		wc.enc = gob.NewEncoder(&wc.out)
	}
	wc.env.P = v
	err := wc.enc.Encode(&wc.env)
	wc.env.P = nil
	if err != nil {
		return 0, fmt.Errorf("transport: encode %T: %w", v, err)
	}
	n := wc.out.n - before
	var flags byte
	if n > streamResetBytes {
		flags = flagReset
		wc.enc = nil
	}
	if err := wc.out.end(flags); err != nil {
		return 0, err
	}
	return n, nil
}

// flush writes everything queued to the socket.
func (wc *wireConn) flush() error { return wc.out.flush() }

// sendFrame queues and flushes a single frame.
func (wc *wireConn) sendFrame(f frame) error {
	wc.queueFrame(f)
	return wc.flush()
}

// readFrame reads one non-payload frame; its body is valid until the next
// readFrame on this connection.
func (wc *wireConn) readFrame() (frame, error) { return readFrame(wc.br, &wc.body) }

// readPayload decodes the payload chain that follows the frame just read,
// and returns the payload bytes the chain carried.
func (wc *wireConn) readPayload() (any, int64, error) {
	before := wc.in.n
	wc.in.begin()
	if wc.dec == nil {
		wc.dec = gob.NewDecoder(&wc.in)
	}
	var env envelope
	if err := wc.dec.Decode(&env); err != nil {
		return nil, 0, fmt.Errorf("transport: decode payload: %w", err)
	}
	if err := wc.in.end(); err != nil {
		return nil, 0, fmt.Errorf("transport: decode payload: %w", err)
	}
	if wc.in.reset {
		wc.dec = nil
	}
	return env.P, wc.in.n - before, nil
}

// --- wire errors -----------------------------------------------------------

// Error codes carried in frameError. Typed sentinels must survive the wire:
// the stem decides Unreachable from errors.Is(err, ErrUnknownNode), and
// chaos accounting recognizes ErrInjected.
const (
	errCodeGeneric     byte = 0
	errCodeUnknownNode byte = 1
	errCodeInjected    byte = 2
)

func errorCode(err error) byte {
	switch {
	case errors.Is(err, ErrUnknownNode):
		return errCodeUnknownNode
	case errors.Is(err, ErrInjected):
		return errCodeInjected
	default:
		return errCodeGeneric
	}
}

// wireError reconstructs a remote error, preserving the remote message and
// the typed sentinel (if any) for errors.Is.
type wireError struct {
	msg      string
	sentinel error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }

func decodeError(code byte, msg string) error {
	switch code {
	case errCodeUnknownNode:
		return &wireError{msg: msg, sentinel: ErrUnknownNode}
	case errCodeInjected:
		return &wireError{msg: msg, sentinel: ErrInjected}
	default:
		return &wireError{msg: msg}
	}
}

func encodeErrorFrame(class, flags byte, err error) frame {
	body := append([]byte{errorCode(err)}, err.Error()...)
	if len(body) > maxFrameBody {
		body = body[:maxFrameBody]
	}
	return frame{kind: frameError, class: class, flags: flags, body: body}
}

func decodeErrorFrame(f frame) error {
	if len(f.body) == 0 {
		return &wireError{msg: "transport: remote error"}
	}
	return decodeError(f.body[0], string(f.body[1:]))
}
