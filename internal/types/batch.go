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
// The decoders are Reader methods (Rows, Column, Ints), so a batch reads
// the same way whether it is a whole spill file (ReadAll), a message part or
// a plan section's dimension data. Every count is checked against the bytes
// actually present before anything is allocated. A column of n values
// occupies at least ColumnMinBytes(n) bytes, so decoded memory is bounded
// by a constant factor of the input (a bit-packed boolean is one bit on the
// wire and one Value in memory — that ratio is the constant).

import (
	"encoding/binary"
	"math"
)

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

// Ints reads len(v) values written by AppendInts.
func (r *Reader) Ints(v []int64) {
	w := int(r.Byte())
	if w != 1 && w != 2 && w != 4 && w != 8 {
		r.Fail("bad int width")
		return
	}
	b := r.Next(w * len(v))
	if b == nil {
		return
	}
	switch w {
	case 1:
		for i := range v {
			v[i] = int64(int8(b[i]))
		}
	case 2:
		for i := range v {
			v[i] = int64(int16(binary.LittleEndian.Uint16(b[i*2:])))
		}
	case 4:
		for i := range v {
			v[i] = int64(int32(binary.LittleEndian.Uint32(b[i*4:])))
		}
	default:
		for i := range v {
			v[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
		}
	}
}

// Column reads n values written by AppendColumn into slab[0], slab[stride],
// … — so a column lands directly in its place in a row-major slab. The
// caller has checked ColumnMinBytes(n) against the input before allocating
// slab.
func (r *Reader) Column(slab []Value, n, stride int) {
	tag := r.Byte()
	if tag == colMixed {
		r.mixed(slab, n, stride)
		return
	}
	if tag > byte(String) {
		r.Fail("unknown column type")
		return
	}
	nb := (n + 7) / 8
	if Type(tag) == Null {
		if r.Next(nb) != nil {
			for i := 0; i < n; i++ {
				slab[i*stride] = Value{}
			}
		}
		return
	}
	var nulls []byte
	if r.Bool() {
		nulls = r.Next(nb)
	}
	switch Type(tag) {
	case Int64:
		ints := make([]int64, n)
		r.Ints(ints)
		for i, v := range ints {
			slab[i*stride] = Value{T: Int64, I: v}
		}
	case Float64:
		b := r.Next(8 * n)
		if b == nil {
			return
		}
		for i := 0; i < n; i++ {
			slab[i*stride] = Value{T: Float64, F: math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))}
		}
	case Bool:
		b := r.Next(nb)
		if b == nil {
			return
		}
		for i := 0; i < n; i++ {
			slab[i*stride] = Value{T: Bool, B: b[i>>3]&(1<<(i&7)) != 0}
		}
	default: // String
		// Lengths first, then one blob: a single string conversion backs
		// every value of the column.
		lens := *r
		total := 0
		for i := 0; i < n; i++ {
			l := r.Uvarint()
			if l > uint64(len(r.b)) || total+int(l) > len(r.b) {
				r.Fail("string lengths exceed input")
				return
			}
			total += int(l)
		}
		b := r.Next(total)
		if b == nil {
			return
		}
		blob, off := string(b), 0
		for i := 0; i < n; i++ {
			l := int(lens.Uvarint())
			slab[i*stride] = Value{T: String, S: blob[off : off+l]}
			off += l
		}
	}
	for i := 0; i < n && nulls != nil; i++ {
		if nulls[i>>3]&(1<<(i&7)) != 0 {
			slab[i*stride] = Value{}
		}
	}
}

// mixed reads a column written value by value by appendMixed.
func (r *Reader) mixed(slab []Value, n, stride int) {
	for i := 0; i < n && r.err == nil; i++ {
		v := &slab[i*stride]
		switch t := Type(r.Byte()); t {
		case Null:
			*v = Value{}
		case Int64:
			*v = Value{T: Int64, I: int64(r.Uint64())}
		case Float64:
			*v = Value{T: Float64, F: math.Float64frombits(r.Uint64())}
		case Bool:
			*v = Value{T: Bool, B: r.Bool()}
		case String:
			*v = Value{T: String, S: r.Str()}
		default:
			r.Fail("unknown value type")
		}
	}
}

// Rows reads one batch written by AppendRows. All rows of a batch share one
// slab of Values.
func (r *Reader) Rows() [][]Value {
	n1 := r.Uvarint()
	switch {
	case n1 == 0:
		return nil
	case n1 == 1:
		return [][]Value{}
	case n1-1 > uint64(len(r.b))*8:
		r.Fail("row count exceeds input")
		return nil
	}
	n := int(n1 - 1)
	switch r.Byte() {
	case rowsRect:
		w := r.Uvarint()
		if w == 0 || w > uint64(len(r.b)) || int(w)*ColumnMinBytes(n) > len(r.b) {
			r.Fail("batch shape exceeds input")
			return nil
		}
		width := int(w)
		slab := make([]Value, n*width)
		for j := 0; j < width; j++ {
			r.Column(slab[j:], n, width)
		}
		rows := make([][]Value, n)
		for i := range rows {
			rows[i] = slab[i*width : (i+1)*width : (i+1)*width]
		}
		return rows
	case rowsRagged:
		if n > len(r.b) {
			r.Fail("row count exceeds input")
			return nil
		}
		widths := *r
		total, limit := 0, len(r.b)*8
		for i := 0; i < n; i++ {
			w1 := r.Uvarint()
			if w1 > 0 && w1-1 > uint64(limit-total) {
				r.Fail("row widths exceed input")
				return nil
			}
			total += int(max(w1, 1) - 1)
		}
		if ColumnMinBytes(total) > len(r.b) {
			r.Fail("batch shape exceeds input")
			return nil
		}
		slab := make([]Value, total)
		r.Column(slab, total, 1)
		rows := make([][]Value, n)
		off := 0
		for i := range rows {
			if w1 := widths.Uvarint(); w1 > 0 {
				w := int(w1 - 1)
				rows[i] = slab[off : off+w : off+w]
				off += w
			}
		}
		return rows
	}
	r.Fail("unknown row layout")
	return nil
}
