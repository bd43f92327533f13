package transport

// Payload chains: the chunkWriter cuts what a connection's encoder writes
// into a framePayload chain (flagMore on all but the last frame), and the
// chunkReader walks such a chain frame by frame for the decoder. It
// implements io.ByteReader, so gob neither buffers ahead of the chain nor
// needs the message reassembled first. The connection that owns a pair of
// them, and the stream rules, are in codec.go (wireConn).

import (
	"bufio"
	"encoding/binary"
	"io"
)

// chunkWriter frames what the encoder writes into a framePayload chain. The
// open frame's header is patched with its final length and flags when the
// frame is sealed; completed frames leave for the socket only when a frame
// fills (a body larger than maxFrameBody streams) or on flush.
type chunkWriter struct {
	w     io.Writer
	buf   []byte // frames not yet on the socket
	class byte
	open  int   // offset in buf of the open payload frame's header, or -1
	n     int64 // payload bytes framed so far
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		if w.open < 0 {
			w.open = len(w.buf)
			w.buf = appendFrameHeader(w.buf, framePayload, w.class, 0, 0)
		}
		room := maxFrameBody - (len(w.buf) - w.open - frameHeaderLen)
		if room == 0 {
			w.seal(flagMore)
			if err := w.flush(); err != nil {
				return total - len(p), err
			}
			continue
		}
		k := min(room, len(p))
		w.buf = append(w.buf, p[:k]...)
		p = p[k:]
	}
	w.n += int64(total)
	return total, nil
}

func (w *chunkWriter) seal(flags byte) {
	w.buf[w.open+5] = flags
	binary.BigEndian.PutUint32(w.buf[w.open+6:], uint32(len(w.buf)-w.open-frameHeaderLen))
	w.open = -1
}

// end closes the chain: the open frame becomes the last one and carries
// flags (flagReset, or none).
func (w *chunkWriter) end(flags byte) error {
	if w.open < 0 {
		return protoErr("empty payload chain")
	}
	w.seal(flags)
	return nil
}

// discard drops everything queued (a half-encoded message).
func (w *chunkWriter) discard() { w.buf, w.open = w.buf[:0], -1 }

func (w *chunkWriter) flush() error {
	_, err := w.w.Write(w.buf)
	if cap(w.buf) > keepWriteBuf {
		w.buf = nil
	} else {
		w.buf = w.buf[:0]
	}
	return err
}

// chunkReader presents one framePayload chain as a byte stream: it reads a
// frame header whenever the previous frame's body is used up and that frame
// announced another (flagMore), and reports io.EOF at the end of the last
// frame. Anything but a well-formed framePayload header inside a chain is
// an ErrProtocol.
type chunkReader struct {
	r      *bufio.Reader
	remain int   // unread bytes of the current frame's body
	more   bool  // another frame follows the current one
	reset  bool  // the chain's last frame carried flagReset
	n      int64 // payload bytes consumed so far
}

// begin arms the reader for the chain that starts with the next frame.
func (r *chunkReader) begin() { r.remain, r.more, r.reset = 0, true, false }

// next advances to the first frame of the chain that still has body bytes.
func (r *chunkReader) next() error {
	for r.remain == 0 {
		if !r.more {
			return io.EOF
		}
		f, n, err := readFrameHeader(r.r)
		if err != nil {
			return midChain(err)
		}
		if f.kind != framePayload {
			return protoErr("unexpected frame kind %d inside payload stream", f.kind)
		}
		r.remain, r.more = n, f.flags&flagMore != 0
		r.reset = !r.more && f.flags&flagReset != 0
	}
	return nil
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if err := r.next(); err != nil {
		return 0, err
	}
	if len(p) > r.remain {
		p = p[:r.remain]
	}
	n, err := r.r.Read(p)
	r.remain -= n
	r.n += int64(n)
	return n, midChain(err)
}

// midChain turns the connection's end into a truncation: inside a chain,
// io.EOF is what the reader itself reports at the end of the last frame.
func midChain(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadByte implements io.ByteReader, which is what tells gob not to wrap
// the reader in a buffer of its own (it would read past the chain).
func (r *chunkReader) ReadByte() (byte, error) {
	if err := r.next(); err != nil {
		return 0, err
	}
	b, err := r.r.ReadByte()
	if err == nil {
		r.remain--
		r.n++
	}
	return b, midChain(err)
}

// end checks that the decoder consumed the chain exactly.
func (r *chunkReader) end() error {
	if err := r.next(); err != io.EOF {
		if err == nil {
			err = protoErr("payload chain longer than its message")
		}
		return err
	}
	return nil
}
