// Package encoding implements the compression-friendly columnar encodings
// used by Feisu's block format (paper §I: "organizes data sets into
// partitions using a compression-friendly columnar format").
//
// Each encoded column chunk is self-describing: a one-byte encoding tag
// followed by the payload, so readers never need out-of-band metadata to
// decode. The encoder picks the cheapest encoding per chunk:
//
//	int64:   run-length / bit-packed over the values or their differences
//	float64: plain
//	bool:    bit-packed
//	string:  plain (length-prefixed) / dictionary
//
// A bit-packed int chunk is a frame of reference: a uvarint count, a width
// byte (0-64), an 8-byte reference, in a delta chunk an 8-byte base, then the
// codes, LSB-first. Code + reference is the value, or in a delta chunk its
// difference from the value before it (the base, for the first).
//
// Decoders read a chunk through a types.Reader (Read*), and Decode* reads a
// whole one. Every count is checked against the bytes present before
// anything is allocated; a run-length chunk's count, against the sum of its
// runs, each at most maxRun values; a width-0 chunk's, against maxRun.
package encoding

import (
	"encoding/binary"
	"math"
	"math/bits"

	"repro/internal/types"
)

// Encoding tags. The tag is the first byte of every encoded chunk.
const (
	tagRunLengthInt byte = 3
	tagPlainFloat   byte = 4
	tagPackedBool   byte = 5
	tagPlainString  byte = 6
	tagDictString   byte = 7
	tagPackedInt    byte = 8
	tagPackedDelta  byte = 9
)

// zigzag encodes a signed int as unsigned for varint efficiency.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag reverses zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// maxRun is the most values one run stands for; the encoder splits longer
// runs, so a run-length chunk decodes to at most maxRun values per two bytes
// of input. It also bounds a width-0 packed chunk, which has no code bytes.
const maxRun = 1 << 16

// EncodeInt64s encodes vals as the smallest of a run-length chunk and two
// packed ones, over the values or their differences, sized in one pass.
func EncodeInt64s(vals []int64) []byte {
	n := len(vals)
	if n == 0 {
		return []byte{tagRunLengthInt, 0}
	}
	lo, hi, dlo, dhi := vals[0], vals[0], int64(math.MaxInt64), int64(math.MinInt64)
	runs, start := 0, 0 // runs: the bytes of the runs that end before start
	for i := 1; i < n; i++ {
		v, d := vals[i], vals[i]-vals[i-1]
		lo, hi, dlo, dhi = min(lo, v), max(hi, v), min(dlo, d), max(dhi, d)
		if d != 0 || i-start == maxRun {
			runs += uvarintLen(uint64(i-start)) + uvarintLen(zigzag(vals[start]))
			start = i
		}
	}
	head := 1 + uvarintLen(uint64(n))
	runs += head + uvarintLen(uint64(n-start)) + uvarintLen(zigzag(vals[start]))
	w, dw := uint(bits.Len64(uint64(hi)-uint64(lo))), uint(bits.Len64(uint64(dhi)-uint64(dlo)))
	if n > maxRun { // more values than a width-0 chunk may claim
		w, dw = max(w, 1), max(dw, 1)
	}
	size, dsize := head+9+(n*int(w)+7)/8, head+17+(n*int(dw)+7)/8
	switch {
	case runs < min(size, dsize):
		return encodeRunLengthInt(make([]byte, 0, runs), vals)
	case dsize < size:
		return pack(dsize, vals, dw, dlo, true)
	}
	return pack(size, vals, w, lo, false)
}

// pack writes the packed chunk of vals, size bytes at code width w over the
// reference ref. Arithmetic wraps, so every difference fits in 64 bits.
func pack(size int, vals []int64, w uint, ref int64, delta bool) []byte {
	dst := binary.AppendUvarint(append(make([]byte, 0, size), tagPackedInt), uint64(len(vals)))
	dst = binary.LittleEndian.AppendUint64(append(dst, byte(w)), uint64(ref))
	prev := int64(0)
	if delta {
		dst[0], prev = tagPackedDelta, vals[0]-ref // the first code is 0
		dst = binary.LittleEndian.AppendUint64(dst, uint64(prev))
	}
	acc, used := uint64(0), uint(0) // used: the bits of acc holding codes
	for _, v := range vals {
		c := uint64(v - prev - ref)
		if delta {
			prev = v
		}
		acc |= c << used
		if used+w < 64 {
			used += w
			continue
		}
		dst = binary.LittleEndian.AppendUint64(dst, acc)
		acc, used = c>>(64-used), used+w-64 // the code's bits past the word; none when used was 0
	}
	for ; used > 0; used -= min(used, 8) {
		dst, acc = append(dst, byte(acc)), acc>>8
	}
	return dst
}

func encodeRunLengthInt(out []byte, vals []int64) []byte {
	out = binary.AppendUvarint(append(out, tagRunLengthInt), uint64(len(vals)))
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] && j-i < maxRun {
			j++
		}
		out = binary.AppendUvarint(binary.AppendUvarint(out, uint64(j-i)), zigzag(vals[i]))
		i = j
	}
	return out
}

// DecodeInt64s decodes a chunk produced by EncodeInt64s.
func DecodeInt64s(data []byte) ([]int64, error) { return types.ReadAll(data, ReadInt64s) }

// ReadInt64s reads a chunk produced by EncodeInt64s.
func ReadInt64s(r *types.Reader) []int64 {
	switch tag := r.Byte(); tag {
	case tagPackedInt, tagPackedDelta:
		return readPacked(r, tag == tagPackedDelta)
	case tagRunLengthInt:
		return readRuns(r)
	}
	r.Fail("unknown int encoding")
	return nil
}

// readPacked reads a packed chunk after its tag.
func readPacked(r *types.Reader, delta bool) []int64 {
	n, w, ref := r.Uvarint(), uint(r.Byte()), int64(r.Uint64())
	base := int64(0)
	if delta {
		base = int64(r.Uint64())
	}
	switch {
	case w > 64:
		r.Fail("bit width exceeds 64")
	case w == 0 && n > maxRun:
		r.Fail("width-0 chunk exceeds the run bound")
	case w > 0 && n > uint64(len(r.Rest()))*8/uint64(w):
		r.Fail("count exceeds input")
	}
	p := r.Next(int((n*uint64(w) + 7) / 8))
	if r.Err() != nil {
		return nil
	}
	out := make([]int64, n)
	unpack(out, p, w, ref)
	for i := 0; delta && i < len(out); i++ {
		base += out[i]
		out[i] = base
	}
	return out
}

// unpack sets out[i] to ref plus the i-th w-bit code in p: one 8-byte load at
// the code's first byte, shifted. Codes of 57 to 63 bits take a ninth byte,
// and the last codes, whose bytes would pass the end of p, come from a copy.
func unpack(out []int64, p []byte, w uint, ref int64) {
	if w == 0 {
		for i := range out {
			out[i] = ref
		}
		return
	}
	mask, fast := uint64(1)<<w-1, 0
	if (w <= 56 || w == 64) && len(p) >= 8 {
		fast = min(len(out), (len(p)*8-64)/int(w)+1)
	}
	o := out[:fast]
	for i := range o {
		bit := uint(i) * w
		o[i] = ref + int64(binary.LittleEndian.Uint64(p[bit/8:bit/8+8:bit/8+8])>>(bit%8)&mask)
	}
	var pad [9]byte
	for i := fast; i < len(out); i++ {
		bit := uint(i) * w
		q := p[bit/8:]
		if len(q) < 9 {
			q = pad[:]
			copy(q, p[bit/8:]) // bytes past the copy are beyond the code
		}
		x := binary.LittleEndian.Uint64(q)>>(bit%8) | uint64(q[8])<<(64-bit%8)
		out[i] = ref + int64(x&mask)
	}
}

// readRuns reads a run-length chunk. A run stands for up to maxRun values,
// so the count is checked against the runs present — they must add up to
// it — before anything is allocated.
func readRuns(r *types.Reader) []int64 {
	n := r.Uvarint()
	runs := *r
	for left := n; left > 0 && r.Err() == nil; {
		c := r.Uvarint()
		if c == 0 || c > left || c > maxRun {
			r.Fail("run-length runs do not add up to the count")
		}
		left -= c
		r.Uvarint()
	}
	if r.Err() != nil {
		return nil
	}
	out := make([]int64, 0, n)
	for uint64(len(out)) < n {
		c, v := runs.Uvarint(), unzigzag(runs.Uvarint())
		for k := uint64(0); k < c; k++ {
			out = append(out, v)
		}
	}
	return out
}

// EncodeFloat64s encodes vals as plain little-endian bits.
func EncodeFloat64s(vals []float64) []byte {
	out := make([]byte, 0, 1+binary.MaxVarintLen64+8*len(vals))
	out = append(out, tagPlainFloat)
	out = binary.AppendUvarint(out, uint64(len(vals)))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// DecodeFloat64s decodes a chunk produced by EncodeFloat64s.
func DecodeFloat64s(data []byte) ([]float64, error) { return types.ReadAll(data, ReadFloat64s) }

// ReadFloat64s reads a chunk produced by EncodeFloat64s.
func ReadFloat64s(r *types.Reader) []float64 {
	if r.Byte() != tagPlainFloat {
		r.Fail("not a float chunk")
		return nil
	}
	n := r.Len(8)
	p := r.Next(8 * n)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
	}
	return out
}

// EncodeBools bit-packs vals.
func EncodeBools(vals []bool) []byte {
	out := make([]byte, 0, 1+binary.MaxVarintLen64+(len(vals)+7)/8)
	out = append(out, tagPackedBool)
	out = binary.AppendUvarint(out, uint64(len(vals)))
	var cur byte
	for i, v := range vals {
		if v {
			cur |= 1 << uint(i%8)
		}
		if i%8 == 7 {
			out = append(out, cur)
			cur = 0
		}
	}
	if len(vals)%8 != 0 {
		out = append(out, cur)
	}
	return out
}

// DecodeBools decodes a chunk produced by EncodeBools.
func DecodeBools(data []byte) ([]bool, error) { return types.ReadAll(data, ReadBools) }

// ReadBools reads a chunk produced by EncodeBools.
func ReadBools(r *types.Reader) []bool {
	if r.Byte() != tagPackedBool {
		r.Fail("not a bool chunk")
		return nil
	}
	n := r.BitLen()
	p := r.Next((n + 7) / 8)
	out := make([]bool, n)
	for i := range out {
		out[i] = p[i/8]&(1<<uint(i%8)) != 0
	}
	return out
}

// EncodeStrings encodes vals, choosing dictionary encoding when the column
// has low cardinality and plain length-prefixed encoding otherwise.
func EncodeStrings(vals []string) []byte {
	distinct := make(map[string]int)
	for _, v := range vals {
		if _, ok := distinct[v]; !ok {
			distinct[v] = len(distinct)
		}
		if len(distinct) > len(vals)/2+1 {
			break
		}
	}
	if len(vals) > 4 && len(distinct) <= len(vals)/2 {
		return encodeDictString(vals)
	}
	return encodePlainString(vals)
}

func encodePlainString(vals []string) []byte {
	size := 1 + binary.MaxVarintLen64
	for _, v := range vals {
		size += binary.MaxVarintLen64 + len(v)
	}
	out := make([]byte, 0, size)
	out = append(out, tagPlainString)
	out = binary.AppendUvarint(out, uint64(len(vals)))
	for _, v := range vals {
		out = binary.AppendUvarint(out, uint64(len(v)))
		out = append(out, v...)
	}
	return out
}

func encodeDictString(vals []string) []byte {
	dict := make(map[string]uint64)
	var order []string
	for _, v := range vals {
		if _, ok := dict[v]; !ok {
			dict[v] = uint64(len(order))
			order = append(order, v)
		}
	}
	out := []byte{tagDictString}
	out = binary.AppendUvarint(out, uint64(len(vals)))
	out = binary.AppendUvarint(out, uint64(len(order)))
	for _, v := range order {
		out = binary.AppendUvarint(out, uint64(len(v)))
		out = append(out, v...)
	}
	for _, v := range vals {
		out = binary.AppendUvarint(out, dict[v])
	}
	return out
}

// DecodeStrings decodes a chunk produced by EncodeStrings.
func DecodeStrings(data []byte) ([]string, error) { return types.ReadAll(data, ReadStrings) }

// ReadStrings reads a chunk produced by EncodeStrings. The strings are cut
// from one copy of the section holding them (the dictionary, or the plain
// values): a chunk costs a few allocations, not one per value.
func ReadStrings(r *types.Reader) []string {
	switch r.Byte() {
	case tagPlainString:
		out := make([]string, r.Len(1))
		readSection(r, out)
		return out
	case tagDictString:
		out := make([]string, r.Len(1))
		dict := make([]string, r.Len(1))
		readSection(r, dict)
		for i := range out {
			code := r.Uvarint()
			if code >= uint64(len(dict)) {
				r.Fail("dictionary code out of range")
				return nil
			}
			out[i] = dict[code]
		}
		return out
	}
	r.Fail("unknown string encoding")
	return nil
}

// readSection reads len(dst) length-prefixed strings: it walks their lengths
// on a copy of r, then carves them from one copy of the bytes they span.
func readSection(r *types.Reader, dst []string) {
	walk := *r
	for range dst {
		walk.Next(int(walk.Uvarint()))
	}
	if walk.Err() != nil {
		*r = walk
		return
	}
	sec := r.Sub(len(r.Rest()) - len(walk.Rest()))
	sec.Carve()
	for i := range dst {
		dst[i] = sec.Str()
	}
	r.Close(&sec)
}
