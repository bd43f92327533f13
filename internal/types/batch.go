package types

// Columnar batch codec: the wire and spill form of rows of Value. A batch
// is written column by column — a type tag, a null bitmap, then a
// fixed-width array (BIGINT at the narrowest width that fits the column,
// DOUBLE), bit-packed booleans, or lengths plus one byte blob (STRING) — so
// encoding and decoding walk typed arrays
// instead of reflecting over 56-byte tagged structs, and a decoded batch
// is a handful of slab allocations however many rows it holds. A column
// whose non-NULL values disagree on type falls back to per-value tags.
//
// Decoders read untrusted bytes: every count is checked against the bytes
// actually present before anything is allocated. A column of n values
// occupies at least ColumnMinBytes(n) bytes, so decoded memory is bounded
// by a constant factor of the input (a bit-packed boolean is one bit on the
// wire and one Value in memory — that ratio is the constant).

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrCorruptBatch marks bytes that are not a well-formed batch encoding.
var ErrCorruptBatch = errors.New("types: corrupt batch")

// corruptError is an ErrCorruptBatch naming what was malformed. It is built
// without fmt, so rejecting hostile bytes costs one allocation, the same
// every time.
type corruptError string

func (e corruptError) Error() string { return ErrCorruptBatch.Error() + ": " + string(e) }
func (e corruptError) Unwrap() error { return ErrCorruptBatch }

func corrupt(what string) error { return corruptError(what) }

// colMixed tags a column encoded value by value, each with its own type.
const colMixed byte = 0xFF

// Row-set layouts.
const (
	rowsRect   byte = 0 // every row has the same non-zero width: column-major
	rowsRagged byte = 1 // per-row widths (nil rows kept), values as one column
)

// ColumnMinBytes is the least number of bytes AppendColumn writes for n
// values; decoders check it before allocating n Values.
func ColumnMinBytes(n int) int { return 1 + (n+7)/8 }

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ReadUvarint consumes one unsigned varint.
func ReadUvarint(src []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, nil, corrupt("bad uvarint")
	}
	return v, src[n:], nil
}

// ReadVarint consumes one signed varint.
func ReadVarint(src []byte) (int64, []byte, error) {
	v, n := binary.Varint(src)
	if n <= 0 {
		return 0, nil, corrupt("bad varint")
	}
	return v, src[n:], nil
}

// ReadCount consumes a uvarint that counts items each occupying at least
// one byte of what follows, and rejects counts the input cannot hold.
func ReadCount(src []byte) (int, []byte, error) {
	v, rest, err := ReadUvarint(src)
	if err != nil {
		return 0, nil, err
	}
	if v > uint64(len(rest)) {
		return 0, nil, corrupt("count exceeds input")
	}
	return int(v), rest, nil
}

// ReadString consumes a length-prefixed string (copied out of src).
func ReadString(src []byte) (string, []byte, error) {
	n, rest, err := ReadCount(src)
	if err != nil {
		return "", nil, err
	}
	return string(rest[:n]), rest[n:], nil
}

func appendBits(dst []byte, n int, bit func(i int) bool) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, (n+7)/8)...)
	for i := 0; i < n; i++ {
		if bit(i) {
			dst[start+i>>3] |= 1 << (i & 7)
		}
	}
	return dst
}

// AppendInts appends v as a width byte and a fixed-width little-endian
// array of the narrowest of 1, 2, 4 or 8 bytes per value that holds every
// one of them (two's complement): counts, small keys and sums of small
// numbers — most of what a partial result holds — take a byte or two each.
func AppendInts(dst []byte, v []int64) []byte {
	lo, hi := int64(0), int64(0)
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	switch {
	case lo >= math.MinInt8 && hi <= math.MaxInt8:
		dst = append(dst, 1)
		for _, x := range v {
			dst = append(dst, byte(x))
		}
	case lo >= math.MinInt16 && hi <= math.MaxInt16:
		dst = append(dst, 2)
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(x))
		}
	case lo >= math.MinInt32 && hi <= math.MaxInt32:
		dst = append(dst, 4)
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
		}
	default:
		dst = append(dst, 8)
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
		}
	}
	return dst
}

// DecodeInts decodes len(v) values written by AppendInts.
func DecodeInts(src []byte, v []int64) ([]byte, error) {
	if len(src) < 1 {
		return nil, corrupt("truncated int array")
	}
	w := int(src[0])
	src = src[1:]
	if w != 1 && w != 2 && w != 4 && w != 8 {
		return nil, corrupt("bad int width")
	}
	if len(src)/w < len(v) {
		return nil, corrupt("truncated int array")
	}
	switch w {
	case 1:
		for i := range v {
			v[i] = int64(int8(src[i]))
		}
	case 2:
		for i := range v {
			v[i] = int64(int16(binary.LittleEndian.Uint16(src[i*2:])))
		}
	case 4:
		for i := range v {
			v[i] = int64(int32(binary.LittleEndian.Uint32(src[i*4:])))
		}
	default:
		for i := range v {
			v[i] = int64(binary.LittleEndian.Uint64(src[i*8:]))
		}
	}
	return src[len(v)*w:], nil
}

// AppendColumn appends the columnar encoding of col.
func AppendColumn(dst []byte, col []Value) []byte {
	tag, nulls, uniform := Null, 0, true
	for i := range col {
		switch t := col[i].T; {
		case t == Null:
			nulls++
		case t > String:
			uniform = false
		case tag == Null:
			tag = t
		case t != tag:
			uniform = false
		}
	}
	if !uniform {
		return appendMixed(dst, col)
	}
	n := len(col)
	dst = append(dst, byte(tag))
	if tag == Null {
		// All NULL: the bitmap alone, so the column still costs n/8 bytes.
		return appendBits(dst, n, func(int) bool { return true })
	}
	if nulls == 0 {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = appendBits(dst, n, func(i int) bool { return col[i].T == Null })
	}
	switch tag {
	case Int64:
		ints := make([]int64, n)
		for i := range col {
			ints[i] = col[i].I
		}
		dst = AppendInts(dst, ints)
	case Float64:
		for i := range col {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(col[i].F))
		}
	case Bool:
		dst = appendBits(dst, n, func(i int) bool { return col[i].B })
	case String:
		for i := range col {
			dst = binary.AppendUvarint(dst, uint64(len(col[i].S)))
		}
		for i := range col {
			dst = append(dst, col[i].S...)
		}
	}
	return dst
}

func appendMixed(dst []byte, col []Value) []byte {
	dst = append(dst, colMixed)
	for i := range col {
		v := &col[i]
		dst = append(dst, byte(v.T))
		switch v.T {
		case Int64:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.I))
		case Float64:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
		case Bool:
			b := byte(0)
			if v.B {
				b = 1
			}
			dst = append(dst, b)
		case String:
			dst = AppendString(dst, v.S)
		}
	}
	return dst
}

// DecodeColumn decodes n values written by AppendColumn into slab[0],
// slab[stride], … — so a column lands directly in its place in a row-major
// slab — and returns the unread rest. The caller has checked
// ColumnMinBytes(n) against the input before allocating slab.
func DecodeColumn(src []byte, slab []Value, n, stride int) ([]byte, error) {
	if len(src) < 1 {
		return nil, corrupt("truncated column")
	}
	tag := src[0]
	src = src[1:]
	nb := (n + 7) / 8
	if tag == colMixed {
		return decodeMixed(src, slab, n, stride)
	}
	if tag > byte(String) {
		return nil, corrupt("unknown column type")
	}
	if Type(tag) == Null {
		if len(src) < nb {
			return nil, corrupt("truncated null column")
		}
		for i := 0; i < n; i++ {
			slab[i*stride] = Value{}
		}
		return src[nb:], nil
	}
	if len(src) < 1 {
		return nil, corrupt("truncated column")
	}
	var nulls []byte
	switch src[0] {
	case 0:
		src = src[1:]
	case 1:
		if len(src) < 1+nb {
			return nil, corrupt("truncated null bitmap")
		}
		nulls, src = src[1:1+nb], src[1+nb:]
	default:
		return nil, corrupt("bad null-bitmap flag")
	}
	switch Type(tag) {
	case Int64:
		ints := make([]int64, n)
		var err error
		if src, err = DecodeInts(src, ints); err != nil {
			return nil, err
		}
		for i, v := range ints {
			slab[i*stride] = Value{T: Int64, I: v}
		}
	case Float64:
		if len(src)/8 < n {
			return nil, corrupt("truncated float column")
		}
		for i := 0; i < n; i++ {
			slab[i*stride] = Value{T: Float64, F: math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))}
		}
		src = src[n*8:]
	case Bool:
		if len(src) < nb {
			return nil, corrupt("truncated bool column")
		}
		for i := 0; i < n; i++ {
			slab[i*stride] = Value{T: Bool, B: src[i>>3]&(1<<(i&7)) != 0}
		}
		src = src[nb:]
	default: // String
		// Lengths first, then one blob: a single string conversion backs
		// every value of the column.
		lens := src
		total := 0
		for i := 0; i < n; i++ {
			l, rest, err := ReadUvarint(src)
			if err != nil {
				return nil, err
			}
			if l > uint64(len(rest)) || total+int(l) > len(rest) {
				return nil, corrupt("string lengths exceed input")
			}
			total += int(l)
			src = rest
		}
		if len(src) < total {
			return nil, corrupt("truncated string blob")
		}
		blob := string(src[:total])
		off := 0
		for i := 0; i < n; i++ {
			l, k := binary.Uvarint(lens)
			lens = lens[k:]
			slab[i*stride] = Value{T: String, S: blob[off : off+int(l)]}
			off += int(l)
		}
		src = src[total:]
	}
	if nulls != nil {
		for i := 0; i < n; i++ {
			if nulls[i>>3]&(1<<(i&7)) != 0 {
				slab[i*stride] = Value{}
			}
		}
	}
	return src, nil
}

func decodeMixed(src []byte, slab []Value, n, stride int) ([]byte, error) {
	for i := 0; i < n; i++ {
		if len(src) < 1 {
			return nil, corrupt("truncated mixed column")
		}
		t := Type(src[0])
		src = src[1:]
		v := &slab[i*stride]
		switch t {
		case Null:
			*v = Value{}
		case Int64, Float64:
			if len(src) < 8 {
				return nil, corrupt("truncated mixed column")
			}
			bits := binary.LittleEndian.Uint64(src)
			if t == Int64 {
				*v = Value{T: Int64, I: int64(bits)}
			} else {
				*v = Value{T: Float64, F: math.Float64frombits(bits)}
			}
			src = src[8:]
		case Bool:
			if len(src) < 1 || src[0] > 1 {
				return nil, corrupt("bad mixed bool")
			}
			*v = Value{T: Bool, B: src[0] == 1}
			src = src[1:]
		case String:
			s, rest, err := ReadString(src)
			if err != nil {
				return nil, err
			}
			*v = Value{T: String, S: s}
			src = rest
		default:
			return nil, corrupt("unknown value type")
		}
	}
	return src, nil
}

// AppendRows appends the batch encoding of rows. A nil slice, an empty
// slice, nil rows and empty rows all round-trip as themselves.
func AppendRows(dst []byte, rows [][]Value) []byte {
	if rows == nil {
		return append(dst, 0)
	}
	n := len(rows)
	dst = binary.AppendUvarint(dst, uint64(n)+1)
	if n == 0 {
		return dst
	}
	width := len(rows[0])
	rect := width > 0
	for _, r := range rows {
		if len(r) != width {
			rect = false
			break
		}
	}
	col := make([]Value, 0, n)
	if rect {
		dst = append(dst, rowsRect)
		dst = binary.AppendUvarint(dst, uint64(width))
		for j := 0; j < width; j++ {
			col = col[:0]
			for _, r := range rows {
				col = append(col, r[j])
			}
			dst = AppendColumn(dst, col)
		}
		return dst
	}
	dst = append(dst, rowsRagged)
	for _, r := range rows {
		if r == nil {
			dst = append(dst, 0)
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(len(r))+1)
		col = append(col, r...)
	}
	return AppendColumn(dst, col)
}

// DecodeRows decodes one batch written by AppendRows and returns the unread
// rest. All rows of a batch share one slab of Values.
func DecodeRows(src []byte) ([][]Value, []byte, error) {
	n1, src, err := ReadUvarint(src)
	if err != nil {
		return nil, nil, err
	}
	if n1 == 0 {
		return nil, src, nil
	}
	if n1 == 1 {
		return [][]Value{}, src, nil
	}
	if n1-1 > uint64(len(src))*8 {
		return nil, nil, corrupt("row count exceeds input")
	}
	n := int(n1 - 1)
	if len(src) < 1 {
		return nil, nil, corrupt("truncated batch")
	}
	layout := src[0]
	src = src[1:]
	switch layout {
	case rowsRect:
		w, rest, err := ReadUvarint(src)
		if err != nil {
			return nil, nil, err
		}
		src = rest
		if w == 0 || w > uint64(len(src)) || int(w)*ColumnMinBytes(n) > len(src) {
			return nil, nil, corrupt("batch shape exceeds input")
		}
		width := int(w)
		slab := make([]Value, n*width)
		for j := 0; j < width; j++ {
			if src, err = DecodeColumn(src, slab[j:], n, width); err != nil {
				return nil, nil, err
			}
		}
		rows := make([][]Value, n)
		for i := range rows {
			rows[i] = slab[i*width : (i+1)*width : (i+1)*width]
		}
		return rows, src, nil
	case rowsRagged:
		if n > len(src) {
			return nil, nil, corrupt("row count exceeds input")
		}
		widths := src
		total, limit := 0, len(src)*8
		for i := 0; i < n; i++ {
			w1, rest, err := ReadUvarint(src)
			if err != nil {
				return nil, nil, err
			}
			if w1 > uint64(limit) {
				return nil, nil, corrupt("row width exceeds input")
			}
			if w1 > 0 {
				total += int(w1 - 1)
			}
			if total > limit {
				return nil, nil, corrupt("row widths exceed input")
			}
			src = rest
		}
		if ColumnMinBytes(total) > len(src) {
			return nil, nil, corrupt("batch shape exceeds input")
		}
		slab := make([]Value, total)
		if src, err = DecodeColumn(src, slab, total, 1); err != nil {
			return nil, nil, err
		}
		rows := make([][]Value, n)
		off := 0
		for i := range rows {
			w1, k := binary.Uvarint(widths)
			widths = widths[k:]
			if w1 == 0 {
				continue
			}
			w := int(w1 - 1)
			rows[i] = slab[off : off+w : off+w]
			off += w
		}
		return rows, src, nil
	default:
		return nil, nil, corrupt("unknown row layout")
	}
}
