package types

// Hand-packed messages: the primitives the cluster's wire messages and the
// plan codec are written with, beside the batch codec they embed. A packed
// message is a sequence of fields with no names and no type descriptors;
// writer and reader agree on the order.
//
// A Reader consumes untrusted bytes. The first malformed field records an
// error wrapping ErrCorruptBatch and empties the input, so every later read
// returns a zero value and a decoder checks Err once, at the end. A count is
// checked against the bytes present before the caller allocates for it.

import (
	"encoding/binary"
	"math"
)

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

// Reader reads a packed message field by field.
type Reader struct {
	b     []byte
	err   error
	whole string // set by Carve: the bytes b started as, copied once
	base  int    // len(b) when whole was taken
}

// NewReader returns a Reader over b. Strings it reads are copies: nothing it
// returns aliases b.
func NewReader(b []byte) Reader { return Reader{b: b} }

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

// Fail records a decoding error (the first one sticks) and empties the input.
func (r *Reader) Fail(what string) {
	if r.err == nil {
		r.err = corrupt(what)
	}
	r.b = nil
}

// Decode hands the unread bytes to a decoder that returns what it did not
// consume; an error it returns sticks like a malformed field.
func (r *Reader) Decode(f func(b []byte) ([]byte, error)) {
	if r.err != nil {
		return
	}
	rest, err := f(r.b)
	if err != nil {
		r.err, r.b = err, nil
		return
	}
	r.b = rest
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.b) < 1 {
		r.Fail("truncated message")
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

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.Fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
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
	if v-1 > uint64(len(r.b)/max(min, 1)) {
		r.Fail("count exceeds input")
		return 0, true
	}
	return int(v - 1), false
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
func (r *Reader) strBytes() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.b)) {
		r.Fail("truncated string")
		return nil
	}
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

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
		if len(r.b) < 8 {
			r.Fail("truncated float")
			return Value{}
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
		r.b = r.b[8:]
		return Value{T: Float64, F: f}
	case Bool:
		return Value{T: Bool, B: r.Bool()}
	case String:
		return Value{T: String, S: r.Str()}
	}
	r.Fail("unknown value type")
	return Value{}
}

// Rows reads a batch written by AppendRows.
func (r *Reader) Rows() (rows [][]Value) {
	r.Decode(func(b []byte) (rest []byte, err error) {
		rows, rest, err = DecodeRows(b)
		return rest, err
	})
	return rows
}
