package transport

// Wire codec for the TCP transport (CodecVersion): length-prefixed frames with
// a version byte, hand-packed handshake and call headers, and payloads that
// are self-contained messages — no state crosses from one message to the
// next, so a connection is only a socket and two reused buffers (stream.go).
//
// A payload is one tag byte and a body. The per-statement cluster messages
// pack themselves (Packer) and register the decoder of their tag with
// RegisterPacked: no reflection, no type descriptors, and each plan once per
// message. Every other registered type (RegisterPayload) rides a gob
// envelope under tag 0, encoded and decoded one message at a time: the cold
// messages — ping, heartbeat, catalog — and whatever a test or the benchmark
// registers. EncodePayload and DecodePayload are exactly what a connection
// carries. The in-process Fabric passes values by reference and never
// touches this file, which is why the payload round-trip conformance test
// exists: it catches types that only break once they meet the wire.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"sync"

	"repro/internal/types"
)

// CodecVersion is the wire protocol version spoken by the TCP transport.
// Both ends carry it in every frame header and refuse mismatches during the
// handshake; bump it whenever the frame layout or payload encoding changes
// incompatibly. Version 9: payloads are self-contained tagged messages,
// hand-packed or a one-shot gob envelope, each plan once per message; the
// per-connection gob stream, its reset flag and the strip frame are gone.
// Version 10: a task reply carries no spill path. Version 11: the Write
// class is gone, so the class byte renumbers (control 0, read 1, shuffle 2),
// and a task no longer carries a worker count.
const CodecVersion = 11

const frameMagic = 0xFE15

// Frame kinds.
const (
	frameHello    byte = iota + 1 // client → server, first frame on a conn
	frameHelloAck                 // server → client: hosted node names
	frameCall                     // packed callHeader, then payload chunks
	framePayload                  // one chunk of a payload/reply body
	frameReply                    // empty body; reply chunks follow
	frameError                    // [code byte] + error text
)

// Frame flags.
const (
	flagMore       byte = 1 << iota // another chunk of this body follows
	flagNilPayload                  // the payload/reply is a nil interface
	flagClose                       // frameError: the sender closes the conn
)

// maxFrameBody bounds one frame's body; a larger payload (a big Read result,
// a shuffle message) travels as a chain of flagMore frames, so a reader
// never trusts a length beyond it.
const maxFrameBody = 256 << 10

// maxPayload bounds a whole payload chain: a peer announcing more is a
// protocol error before its bytes are read.
const maxPayload = 1 << 30

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
// (body unset) and the announced body length. The header is parsed in the
// reader's own buffer: nothing is allocated.
func readFrameHeader(br *bufio.Reader) (frame, int, error) {
	hdr, err := br.Peek(frameHeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
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
	f := frame{kind: hdr[3], class: hdr[4], flags: hdr[5]}
	br.Discard(frameHeaderLen)
	return f, int(n), nil
}

// readFrame reads one frame whose body lands in *buf, grown as needed and
// reused from frame to frame: the returned body is valid until the next
// call with the same buffer.
func readFrame(br *bufio.Reader, buf *[]byte) (frame, error) {
	f, n, err := readFrameHeader(br)
	if err != nil {
		return frame{}, err
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	f.body = (*buf)[:n]
	if _, err := io.ReadFull(br, f.body); err != nil {
		return frame{}, err
	}
	return f, nil
}

// callHeader precedes a call's payload chunks on the wire.
type callHeader struct {
	From  string
	To    string
	Class Class
	Size  int64 // declared payload size, as the caller counted it
	// Baggage is the caller's in-process context relay ID (see baggage.go);
	// meaningful only when the call loops back into the caller's own process.
	Baggage uint64
}

func (h callHeader) append(dst []byte) []byte {
	dst = types.AppendString(dst, h.From)
	dst = types.AppendString(dst, h.To)
	dst = append(dst, byte(h.Class))
	dst = binary.AppendVarint(dst, h.Size)
	return binary.AppendUvarint(dst, h.Baggage)
}

func parseCallHeader(b []byte) (h callHeader, err error) {
	r := types.NewReader(b)
	h.From, h.To, h.Class, h.Size, h.Baggage = r.Str(), r.Str(), Class(r.Byte()), r.Varint(), r.Uvarint()
	return h, packedErr(&r, "call header", h.Class > Shuffle)
}

// packedErr reports a hand-packed header that r did not read exactly, or
// that holds a bad value, as an ErrProtocol.
func packedErr(r *types.Reader, what string, bad bool) error {
	if r.Err() != nil || len(r.Rest()) != 0 || bad {
		return protoErr("malformed %s", what)
	}
	return nil
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
	return types.AppendString(binary.AppendUvarint(dst, uint64(h.Version)), h.From)
}

func parseHello(b []byte) (h helloMsg, err error) {
	r := types.NewReader(b)
	h.Version, h.From = int(r.Uvarint()), r.Str()
	return h, packedErr(&r, "hello", false)
}

func (a helloAck) append(dst []byte) []byte {
	dst = types.AppendCount(binary.AppendUvarint(dst, uint64(a.Version)), len(a.Nodes), false)
	for _, n := range a.Nodes {
		dst = types.AppendString(dst, n)
	}
	return dst
}

func parseHelloAck(b []byte) (a helloAck, err error) {
	r := types.NewReader(b)
	a.Version = int(r.Uvarint())
	n, _ := r.Count(1) // every name occupies at least a byte
	a.Nodes = make([]string, n)
	for i := range a.Nodes {
		a.Nodes[i] = r.Str()
	}
	return a, packedErr(&r, "hello ack", false)
}

// --- payloads --------------------------------------------------------------

// tagGob is the tag of a gob envelope body.
const tagGob byte = 0

// A Packer is a payload that packs itself: the wire carries its tag and then
// what AppendPayload appends. Its type is registered with RegisterPacked.
type Packer interface {
	// PayloadTag is the tag the type's decoder is registered under.
	PayloadTag() byte
	// AppendPayload appends the packed body to dst.
	AppendPayload(dst []byte) ([]byte, error)
}

// envelope wraps a payload so gob can carry any registered concrete type
// behind a single static wire type.
type envelope struct {
	P any
}

var payloadReg struct {
	sync.Mutex
	types map[string]reflect.Type
	// unpack is each packed tag's decoder. It is written at init time only,
	// so readers take no lock.
	unpack [256]func([]byte) (any, error)
}

// RegisterPayload registers a payload or reply type that rides a gob
// envelope. Pass a value of the concrete type that crosses Call (the same
// concrete type the receiver type-asserts): RegisterPayload(pingMsg{}).
// Registration is idempotent and must happen identically in every process
// (init-time in the owning package).
func RegisterPayload(v any) {
	gob.Register(v)
	addPayloadType(v)
}

// RegisterPacked registers a Packer type and the decoder of its tag, which
// must be free. The decoder reads untrusted bytes: corrupt input is an error,
// never a panic, and nothing it returns may alias b, which the connection
// reuses for the next message. Like RegisterPayload, it runs at init time,
// identically in every process.
func RegisterPacked(sample Packer, unpack func(b []byte) (any, error)) {
	tag := sample.PayloadTag()
	if tag == tagGob || payloadReg.unpack[tag] != nil {
		panic(fmt.Sprintf("transport: payload tag %d is taken", tag))
	}
	payloadReg.unpack[tag] = unpack
	addPayloadType(sample)
}

func addPayloadType(v any) {
	t := reflect.TypeOf(v)
	payloadReg.Lock()
	if payloadReg.types == nil {
		payloadReg.types = make(map[string]reflect.Type)
	}
	payloadReg.types[t.String()] = t
	payloadReg.Unlock()
}

// RegisteredPayloads returns every registered concrete payload type, packed
// or gob, sorted by name. The payload round-trip conformance test walks this
// list.
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
// message: exactly the bytes a connection carries for it.
func EncodePayload(v any) ([]byte, error) {
	if p, ok := v.(Packer); ok {
		return appendPacked(nil, p)
	}
	var buf bytes.Buffer
	buf.WriteByte(tagGob)
	if err := gob.NewEncoder(&buf).Encode(envelope{P: v}); err != nil {
		return nil, fmt.Errorf("transport: encode %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// DecodePayload reverses EncodePayload. Nothing it returns aliases b.
func DecodePayload(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, protoErr("empty payload")
	}
	if tag := b[0]; tag != tagGob {
		unpack := payloadReg.unpack[tag]
		if unpack == nil {
			return nil, protoErr("unknown payload tag %d", tag)
		}
		v, err := unpack(b[1:])
		if err != nil {
			return nil, fmt.Errorf("transport: decode payload tag %d: %w", tag, err)
		}
		return v, nil
	}
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(b[1:])).Decode(&env); err != nil {
		return nil, fmt.Errorf("transport: decode payload: %w", err)
	}
	return env.P, nil
}

// appendPayload appends v's EncodePayload form to dst; a Packer packs itself
// straight into dst.
func appendPayload(dst []byte, v any) ([]byte, error) {
	if p, ok := v.(Packer); ok {
		return appendPacked(dst, p)
	}
	b, err := EncodePayload(v)
	return append(dst, b...), err
}

func appendPacked(dst []byte, p Packer) ([]byte, error) {
	b, err := p.AppendPayload(append(dst, p.PayloadTag()))
	if err != nil {
		return dst, fmt.Errorf("transport: encode %T: %w", p, err)
	}
	return b, nil
}

// --- wire errors -----------------------------------------------------------

// wireSentinels are the typed errors that survive the wire, by the code a
// frameError carries (0: none). The stem decides Unreachable from
// errors.Is(err, ErrUnknownNode), and chaos accounting recognizes ErrInjected.
var wireSentinels = [...]error{nil, ErrUnknownNode, ErrInjected}

func errorCode(err error) byte {
	for code := 1; code < len(wireSentinels); code++ {
		if errors.Is(err, wireSentinels[code]) {
			return byte(code)
		}
	}
	return 0
}

// wireError reconstructs a remote error, preserving the remote message and
// the typed sentinel (if any) for errors.Is.
type wireError struct {
	msg      string
	sentinel error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }

func encodeErrorFrame(class, flags byte, err error) frame {
	body := append([]byte{errorCode(err)}, err.Error()...)
	if len(body) > maxFrameBody {
		body = body[:maxFrameBody]
	}
	return frame{kind: frameError, class: class, flags: flags, body: body}
}

func decodeErrorFrame(f frame) error {
	e := &wireError{msg: "transport: remote error"}
	if len(f.body) > 0 {
		e.msg = string(f.body[1:])
		if code := int(f.body[0]); code < len(wireSentinels) {
			e.sentinel = wireSentinels[code]
		}
	}
	return e
}
