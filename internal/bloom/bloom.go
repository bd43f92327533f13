// Package bloom implements the small per-block bloom filters that appear in
// the SmartIndex schema of paper Fig. 6 ("range bloom"): a summary of a
// column chunk's values that lets equality predicates be proven all-false
// without touching the data, complementing the min/max range metadata.
package bloom

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"repro/internal/types"
)

// Filter is a fixed-size bloom filter with k hash functions derived from
// one 64-bit FNV hash (Kirsch–Mitzenmacher double hashing).
type Filter struct {
	bits []uint64
	m    uint64 // bit count
	k    uint32
}

// New sizes a filter for n expected items at roughly the given false
// positive rate (clamped to a sane range).
func New(n int, fpr float64) *Filter {
	if n < 1 {
		n = 1
	}
	if fpr <= 0 || fpr >= 1 {
		fpr = 0.01
	}
	mFloat := -float64(n) * math.Log(fpr) / (math.Ln2 * math.Ln2)
	m := uint64(mFloat)
	if m < 64 {
		m = 64
	}
	m = (m + 63) / 64 * 64
	k := uint32(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &Filter{bits: make([]uint64, m/64), m: m, k: k}
}

func (f *Filter) hash(data []byte) (uint64, uint64) {
	h := fnv.New64a()
	h.Write(data)
	h1 := h.Sum64()
	// Second independent hash: re-hash the first.
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], h1)
	h.Reset()
	h.Write(buf[:])
	return h1, h.Sum64()
}

// Add inserts a value.
func (f *Filter) Add(data []byte) {
	h1, h2 := f.hash(data)
	for i := uint32(0); i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.m
		f.bits[bit/64] |= 1 << (bit % 64)
	}
}

// MayContain reports whether the value may have been inserted; false means
// certainly absent.
func (f *Filter) MayContain(data []byte) bool {
	h1, h2 := f.hash(data)
	for i := uint32(0); i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.m
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// SizeBytes returns the in-memory footprint.
func (f *Filter) SizeBytes() int { return 8*len(f.bits) + 16 }

// Marshal serializes the filter: uvarint m, uvarint k, words LE.
func (f *Filter) Marshal() []byte {
	out := binary.AppendUvarint(nil, f.m)
	out = binary.AppendUvarint(out, uint64(f.k))
	for _, w := range f.bits {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out
}

// Unmarshal parses the form produced by Marshal.
func Unmarshal(data []byte) (*Filter, error) { return types.ReadAll(data, Read) }

// Read reads the form produced by Marshal.
func Read(r *types.Reader) *Filter {
	m, k := r.BitLen(), r.Uvarint()
	if m == 0 || m%64 != 0 || k == 0 || k > 64 {
		r.Fail("bad bloom filter shape")
	}
	p := r.Next(m / 8)
	if p == nil {
		return nil
	}
	f := &Filter{bits: make([]uint64, m/64), m: uint64(m), k: uint32(k)}
	for i := range f.bits {
		f.bits[i] = binary.LittleEndian.Uint64(p[i*8:])
	}
	return f
}
