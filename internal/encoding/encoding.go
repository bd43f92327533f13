// Package encoding implements the compression-friendly columnar encodings
// used by Feisu's block format (paper §I: "organizes data sets into
// partitions using a compression-friendly columnar format").
//
// Each encoded column chunk is self-describing: a one-byte encoding tag
// followed by the payload, so readers never need out-of-band metadata to
// decode. The encoder picks the cheapest encoding per chunk:
//
//	int64:   plain / delta-varint / run-length
//	float64: plain
//	bool:    bit-packed
//	string:  plain (length-prefixed) / dictionary
//
// Decoders read a chunk through a types.Reader (Read*), and Decode* reads a
// whole one. Every count is checked against the bytes present before
// anything is allocated; a run-length chunk's count, against the sum of its
// runs, each at most maxRun values.
package encoding

import (
	"encoding/binary"
	"math"

	"repro/internal/types"
)

// Encoding tags. The tag is the first byte of every encoded chunk.
const (
	tagPlainInt     byte = 1
	tagDeltaVarint  byte = 2
	tagRunLengthInt byte = 3
	tagPlainFloat   byte = 4
	tagPackedBool   byte = 5
	tagPlainString  byte = 6
	tagDictString   byte = 7
)

// zigzag encodes a signed int as unsigned for varint efficiency.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag reverses zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

// EncodeInt64s encodes vals, choosing between plain, delta-varint and
// run-length encodings by estimated size.
func EncodeInt64s(vals []int64) []byte {
	// Estimate run-length benefit.
	runs := 0
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		runs++
		i = j
	}
	if len(vals) > 0 && runs <= len(vals)/4 {
		return encodeRunLengthInt(vals, runs)
	}
	delta := encodeDeltaVarint(vals)
	if len(delta) < 8*len(vals)+2 {
		return delta
	}
	return encodePlainInt(vals)
}

func encodePlainInt(vals []int64) []byte {
	out := make([]byte, 0, 1+binary.MaxVarintLen64+8*len(vals))
	out = append(out, tagPlainInt)
	out = appendUvarint(out, uint64(len(vals)))
	var tmp [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(tmp[:], uint64(v))
		out = append(out, tmp[:]...)
	}
	return out
}

func encodeDeltaVarint(vals []int64) []byte {
	out := make([]byte, 0, 1+binary.MaxVarintLen64+2*len(vals))
	out = append(out, tagDeltaVarint)
	out = appendUvarint(out, uint64(len(vals)))
	prev := int64(0)
	for _, v := range vals {
		out = appendUvarint(out, zigzag(v-prev))
		prev = v
	}
	return out
}

// maxRun is the most values one run stands for; the encoder splits longer
// runs, so a run-length chunk decodes to at most maxRun values per two bytes
// of input.
const maxRun = 1 << 16

func encodeRunLengthInt(vals []int64, runs int) []byte {
	out := make([]byte, 0, 1+binary.MaxVarintLen64+runs*4)
	out = append(out, tagRunLengthInt)
	out = appendUvarint(out, uint64(len(vals)))
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] && j-i < maxRun {
			j++
		}
		out = appendUvarint(out, uint64(j-i))
		out = appendUvarint(out, zigzag(vals[i]))
		i = j
	}
	return out
}

// DecodeInt64s decodes a chunk produced by EncodeInt64s.
func DecodeInt64s(data []byte) ([]int64, error) { return types.ReadAll(data, ReadInt64s) }

// ReadInt64s reads a chunk produced by EncodeInt64s.
func ReadInt64s(r *types.Reader) []int64 {
	switch r.Byte() {
	case tagPlainInt:
		n := r.Len(8)
		p := r.Next(8 * n)
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(p[i*8:]))
		}
		return out
	case tagDeltaVarint:
		out := make([]int64, r.Len(1))
		prev := int64(0)
		for i := range out {
			prev += unzigzag(r.Uvarint())
			out[i] = prev
		}
		return out
	case tagRunLengthInt:
		return readRuns(r)
	}
	r.Fail("unknown int encoding")
	return nil
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
	out = appendUvarint(out, uint64(len(vals)))
	var tmp [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
		out = append(out, tmp[:]...)
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
	out = appendUvarint(out, uint64(len(vals)))
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
	out = appendUvarint(out, uint64(len(vals)))
	for _, v := range vals {
		out = appendUvarint(out, uint64(len(v)))
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
	out = appendUvarint(out, uint64(len(vals)))
	out = appendUvarint(out, uint64(len(order)))
	for _, v := range order {
		out = appendUvarint(out, uint64(len(v)))
		out = append(out, v...)
	}
	for _, v := range vals {
		out = appendUvarint(out, dict[v])
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
