package transport

// A connection end (wireConn) and the payload chains it writes and reads. A
// payload is one self-contained message (codec.go), so a connection holds no
// codec state: what it keeps between calls is its socket, a write buffer and
// a read buffer, each dropped after a message that grew it past a bound. A
// payload travels as a framePayload chain — one frame, or flagMore frames
// when its body exceeds maxFrameBody — and is read whole into the read
// buffer before it is decoded; decoders copy what they keep, so the buffer
// is reused by the next message.

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"slices"
)

const (
	// readBufSize is each connection's bufio buffer: frame headers and
	// small bodies are parsed out of it, bulk chain bodies bypass it.
	readBufSize = 2 << 10
	// keepWriteBuf and keepReadBuf are the largest write and payload
	// buffers a connection keeps between messages.
	keepWriteBuf = 16 << 10
	keepReadBuf  = 32 << 10
)

// wireConn is one framed connection, dedicated to a single in-flight call
// at a time (checkout → request/reply → return). After any framing or I/O
// error, or a call abandoned half-way, the two ends may disagree about where
// the next frame starts: such a connection is closed, never reused.
type wireConn struct {
	c    net.Conn
	br   *bufio.Reader
	out  []byte // frames queued for the socket
	in   []byte // reused buffer of the payload chain being read
	body []byte // reused body buffer of non-payload frames
}

func newWireConn(c net.Conn) *wireConn {
	return &wireConn{c: c, br: bufio.NewReaderSize(c, readBufSize)}
}

// queueFrame buffers one non-payload frame behind whatever is already
// queued; nothing reaches the socket before flush.
func (wc *wireConn) queueFrame(f frame) { wc.out = appendFrame(wc.out, f) }

// queueCall buffers a call frame carrying h.
func (wc *wireConn) queueCall(h callHeader, flags byte) {
	start := len(wc.out)
	wc.out = h.append(appendFrameHeader(wc.out, frameCall, byte(h.Class), flags, 0))
	binary.BigEndian.PutUint32(wc.out[start+6:], uint32(len(wc.out)-start-frameHeaderLen))
}

// queuePayload encodes v as the payload chain of the frame just queued, and
// returns the payload bytes. The body is packed straight into the write
// buffer; only a body longer than maxFrameBody is copied, to cut it into a
// chain. On an encoding error nothing of v stays queued.
func (wc *wireConn) queuePayload(class byte, v any) (int64, error) {
	start := len(wc.out)
	b, err := appendPayload(appendFrameHeader(wc.out, framePayload, class, 0, 0), v)
	if err != nil {
		wc.out = wc.out[:start]
		return 0, err
	}
	n := len(b) - start - frameHeaderLen
	if n <= maxFrameBody {
		binary.BigEndian.PutUint32(b[start+6:], uint32(n))
		wc.out = b
	} else {
		wc.out = appendChain(b[:start], class, slices.Clone(b[start+frameHeaderLen:]))
	}
	return int64(n), nil
}

// appendChain appends body as a framePayload chain: flagMore on every frame
// but the last.
func appendChain(dst []byte, class byte, body []byte) []byte {
	for {
		k, flags := min(len(body), maxFrameBody), byte(0)
		if k < len(body) {
			flags = flagMore
		}
		dst = appendFrame(dst, frame{kind: framePayload, class: class, flags: flags, body: body[:k]})
		if body = body[k:]; len(body) == 0 {
			return dst
		}
	}
}

// flush writes everything queued to the socket.
func (wc *wireConn) flush() error {
	_, err := wc.c.Write(wc.out)
	if wc.out = wc.out[:0]; cap(wc.out) > keepWriteBuf {
		wc.out = nil
	}
	return err
}

// sendFrame queues and flushes a single frame.
func (wc *wireConn) sendFrame(f frame) error {
	wc.queueFrame(f)
	return wc.flush()
}

// readFrame reads one non-payload frame; its body is valid until the next
// readFrame on this connection.
func (wc *wireConn) readFrame() (frame, error) { return readFrame(wc.br, &wc.body) }

// readPayload reads the payload chain that follows the frame just read and
// decodes it, returning the payload bytes the chain carried.
func (wc *wireConn) readPayload() (any, int64, error) {
	b, err := readChain(wc.br, wc.in[:0])
	if wc.in = b; cap(b) > keepReadBuf {
		wc.in = nil
	}
	if err != nil {
		return nil, 0, err
	}
	v, err := DecodePayload(b)
	return v, int64(len(b)), err
}

// readChain appends the body of the framePayload chain that follows to buf.
// Anything but a well-formed framePayload header inside a chain, or a chain
// longer than maxPayload, is an ErrProtocol; the connection's end is a
// truncation.
func readChain(br *bufio.Reader, buf []byte) ([]byte, error) {
	for {
		f, n, err := readFrameHeader(br)
		if err != nil {
			return buf, midChain(err)
		}
		if f.kind != framePayload {
			return buf, protoErr("unexpected frame kind %d inside payload chain", f.kind)
		}
		if len(buf)+n > maxPayload {
			return buf, protoErr("payload chain exceeds %d bytes", maxPayload)
		}
		k := len(buf)
		buf = slices.Grow(buf, n)[:k+n]
		if _, err := io.ReadFull(br, buf[k:]); err != nil {
			return buf[:k], midChain(err)
		}
		if f.flags&flagMore == 0 {
			return buf, nil
		}
	}
}

// midChain turns the connection's end into a truncation: a chain was
// announced, so its bytes are owed.
func midChain(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
