package types

// Hand-packed bytes: the primitives the cluster's wire messages, the plan
// codec, the batch codec and the partition-file format are written with. A
// packed message is a sequence of fields with no names and no type
// descriptors; writer and reader agree on the order.
//
// Every byte that comes from outside the process — off the wire, out of a
// spill file or a partition file — is read through a Reader, and only a
// Reader decodes a varint. The first malformed field records an error
// wrapping ErrCorrupt and empties the input, so every later read returns a
// zero value and a decoder checks Err once, at the end. A count is checked
// against the bytes present before the caller allocates for it (Count, Len,
// BitLen), so decoded memory is a constant factor of the input; varints must
// be minimal, so what decodes re-encodes to the bytes it came from.

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrCorrupt marks bytes that are not a well-formed encoding: a wire
// message, a batch, a plan section, a spill file or a partition file.
var ErrCorrupt = errors.New("types: corrupt input")

// corruptError is an ErrCorrupt naming what was malformed. It is built
// without fmt, so rejecting hostile bytes costs one allocation, the same
// every time.
type corruptError string

var errVarint error = corruptError("bad varint")

func (e corruptError) Error() string { return ErrCorrupt.Error() + ": " + string(e) }
func (e corruptError) Unwrap() error { return ErrCorrupt }

// AppendBool appends b as one byte.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendCount appends the length of a slice, keeping a nil slice apart from
// an empty one: Reader.Count reads it back.
func AppendCount(dst []byte, n int, isNil bool) []byte {
	if isNil {
		return append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(n)+1)
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendValue appends one value: its type, then the field the type selects.
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.T))
	switch v.T {
	case Int64:
		return binary.AppendVarint(dst, v.I)
	case Float64:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
	case Bool:
		return AppendBool(dst, v.B)
	case String:
		return AppendString(dst, v.S)
	}
	return dst
}

// Reader reads packed bytes field by field.
type Reader struct {
	b     []byte
	err   error
	whole string // set by Carve: the bytes b started as, copied once
	base  int    // len(b) when whole was taken
}

// NewReader returns a Reader over b. Strings it reads are copies: nothing it
// returns aliases b, except what Next returns.
func NewReader(b []byte) Reader { return Reader{b: b} }

// ReadAll decodes the whole of b with read: bytes read leaves over are an
// error, like a malformed field.
func ReadAll[T any](b []byte, read func(*Reader) T) (T, error) {
	r := NewReader(b)
	v := read(&r)
	return v, r.End()
}

// Sub consumes the next n bytes and returns a Reader over them alone: a part
// whose length precedes it. Close hands the part's outcome back to r.
func (r *Reader) Sub(n int) Reader { return NewReader(r.Next(n)) }

// Close ends a part read through Sub: the part's failure, or bytes it left
// unread, are r's failure.
func (r *Reader) Close(sub *Reader) {
	if err := sub.End(); err != nil && r.err == nil {
		r.err, r.b = err, nil
	}
}

// Carve makes the reader cut every later string from one copy of the unread
// bytes instead of copying each string on its own: one allocation for all of
// them, which lives as long as any of them does.
func (r *Reader) Carve() {
	r.whole, r.base = string(r.b), len(r.b)
}

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Rest returns the unread bytes.
func (r *Reader) Rest() []byte { return r.b }

// End returns the first decoding error, or an error when bytes are left
// unread: the check that a whole buffer was one encoding.
func (r *Reader) End() error {
	if r.err == nil && len(r.b) != 0 {
		r.Fail("trailing bytes")
	}
	return r.err
}

// Fail records a decoding error (the first one sticks) and empties the input.
func (r *Reader) Fail(what string) {
	if r.err == nil {
		r.err = corruptError(what)
	}
	r.b = nil
}

// Next consumes n bytes and returns them, aliasing the input; it fails and
// returns nil when fewer are left.
func (r *Reader) Next(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.Fail("truncated input")
		return nil
	}
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.b) < 1 {
		r.Fail("truncated input")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Bool reads a byte written by AppendBool.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.Fail("bad bool")
	return false
}

// Uint64 reads eight little-endian bytes.
func (r *Reader) Uint64() uint64 {
	if b := r.Next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Uvarint reads an unsigned varint. It calls nothing, so it inlines into
// the per-value loops of the column decoders.
func (r *Reader) Uvarint() uint64 {
	var v uint64
	for i, c := range r.b {
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			if i > 0 && c == 0 || i > 9 || i == 9 && c > 1 { // not minimal, or past 64 bits
				break
			}
			r.b = r.b[i+1:]
			return v
		}
	}
	if r.err == nil {
		r.err = errVarint
	}
	r.b = nil
	return 0
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	if u&1 != 0 {
		return ^int64(u >> 1)
	}
	return int64(u >> 1)
}

// Int reads a signed varint as an int.
func (r *Reader) Int() int { return int(r.Varint()) }

// Count reads a length written by AppendCount, reporting a nil slice as
// isNil. Each element occupies at least min bytes of what follows, and a
// count the unread bytes cannot hold fails before anything is allocated.
func (r *Reader) Count(min int) (n int, isNil bool) {
	v := r.Uvarint()
	if v == 0 {
		return 0, true
	}
	return r.fits(v-1, 8*max(min, 1)), false
}

// Len reads a plain uvarint count of items that each occupy at least min
// bytes of what follows; a count the unread bytes cannot hold fails, and Len
// returns 0.
func (r *Reader) Len(min int) int { return r.fits(r.Uvarint(), 8*max(min, 1)) }

// BitLen reads a uvarint count of bit-packed items, as Len does for items of
// one bit.
func (r *Reader) BitLen() int { return r.fits(r.Uvarint(), 1) }

// fits returns n, or fails and returns 0 when n items of bits bits each
// overrun the unread bytes.
func (r *Reader) fits(n uint64, bits int) int {
	if n > uint64(len(r.b))*8/uint64(bits) {
		r.Fail("count exceeds input")
		return 0
	}
	return int(n)
}

// Str reads a string written by AppendString.
func (r *Reader) Str() string { return r.str(r.strBytes()) }

// Known reads a string written by AppendString and, when it equals one of
// known, returns that string instead of a copy: nothing is allocated.
func (r *Reader) Known(known []string) string {
	b := r.strBytes()
	for _, k := range known {
		if string(b) == k {
			return k
		}
	}
	return r.str(b)
}

// strBytes consumes a length-prefixed string's bytes.
func (r *Reader) strBytes() []byte { return r.Next(int(r.Uvarint())) }

// str turns the bytes strBytes just consumed into a string.
func (r *Reader) str(b []byte) string {
	if r.whole == "" {
		return string(b)
	}
	off := r.base - len(r.b) - len(b)
	return r.whole[off : off+len(b)]
}

// Value reads a value written by AppendValue.
func (r *Reader) Value() Value {
	switch t := Type(r.Byte()); t {
	case Null:
		return Value{}
	case Int64:
		return Value{T: Int64, I: r.Varint()}
	case Float64:
		return Value{T: Float64, F: math.Float64frombits(r.Uint64())}
	case Bool:
		return Value{T: Bool, B: r.Bool()}
	case String:
		return Value{T: String, S: r.Str()}
	}
	r.Fail("unknown value type")
	return Value{}
}
