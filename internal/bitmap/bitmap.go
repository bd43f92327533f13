// Package bitmap implements the 0-1 vectors that back Feisu's SmartIndex
// (paper §IV-C): each index entry stores the evaluation result of one query
// predicate over one data block as a bitmap, and query execution composes
// cached bitmaps with bit-AND / bit-OR / bit-NOT instead of re-scanning the
// block (paper Fig. 7).
//
// Two representations are provided: a dense word-backed Bitmap for in-flight
// computation, and an RLE-compressed form (Compress/Decompress) used when an
// entry is parked in the index cache, since "Feisu can compress the index to
// improve memory efficiency".
package bitmap

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

const wordBits = 64

// Bitmap is a fixed-length dense bitset.
type Bitmap struct {
	n     int // number of valid bits
	words []uint64
}

// New returns an all-zero bitmap of n bits.
func New(n int) *Bitmap {
	if n < 0 {
		panic("bitmap: negative length")
	}
	return &Bitmap{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewFull returns an all-ones bitmap of n bits.
func NewFull(n int) *Bitmap {
	b := &Bitmap{}
	b.Fill(n)
	return b
}

// Fill makes b an all-ones bitmap of n bits, reusing its words when they
// suffice: a scan starts every block's selection vector this way. The zero
// Bitmap is ready for it.
func (b *Bitmap) Fill(n int) {
	if n < 0 {
		panic("bitmap: negative length")
	}
	nw := (n + wordBits - 1) / wordBits
	if cap(b.words) < nw {
		b.words = make([]uint64, nw)
	}
	b.n, b.words = n, b.words[:nw]
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.clearTail()
}

// FromBools builds a bitmap from a bool slice.
func FromBools(vals []bool) *Bitmap {
	b := New(len(vals))
	for i, v := range vals {
		if v {
			b.Set(i)
		}
	}
	return b
}

// clearTail zeroes the unused bits of the last word so Count and equality
// stay exact after whole-word operations such as Not.
func (b *Bitmap) clearTail() {
	if rem := b.n % wordBits; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (uint64(1) << uint(rem)) - 1
	}
}

// Len returns the number of bits.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i to 1.
func (b *Bitmap) Set(i int) {
	b.checkIndex(i)
	b.words[i/wordBits] |= uint64(1) << uint(i%wordBits)
}

// Clear sets bit i to 0.
func (b *Bitmap) Clear(i int) {
	b.checkIndex(i)
	b.words[i/wordBits] &^= uint64(1) << uint(i%wordBits)
}

// SetWord overwrites the 64-bit word holding bits [wi*64, wi*64+64) — the
// bulk store used by the vectorized predicate kernels, which accumulate
// match bits in a register and flush whole words. Bits beyond Len are
// masked off.
func (b *Bitmap) SetWord(wi int, w uint64) {
	if wi < 0 || wi >= len(b.words) {
		panic(fmt.Sprintf("bitmap: word %d out of range [0,%d)", wi, len(b.words)))
	}
	b.words[wi] = w
	if wi == len(b.words)-1 {
		b.clearTail()
	}
}

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool {
	b.checkIndex(i)
	return b.words[i/wordBits]&(uint64(1)<<uint(i%wordBits)) != 0
}

func (b *Bitmap) checkIndex(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitmap: index %d out of range [0,%d)", i, b.n))
	}
}

// Count returns the number of set bits (population count).
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	c := &Bitmap{n: b.n, words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}

// And sets b = b AND other in place. Lengths must match.
func (b *Bitmap) And(other *Bitmap) {
	b.checkLen(other)
	for i := range b.words {
		b.words[i] &= other.words[i]
	}
}

// Or sets b = b OR other in place. Lengths must match.
func (b *Bitmap) Or(other *Bitmap) {
	b.checkLen(other)
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// AndNot sets b = b AND NOT other in place. Lengths must match.
func (b *Bitmap) AndNot(other *Bitmap) {
	b.checkLen(other)
	for i := range b.words {
		b.words[i] &^= other.words[i]
	}
}

// Not inverts all bits in place. This is the bit-NOT of paper Fig. 7, used
// to derive an index for !(pred) from a cached index for pred.
func (b *Bitmap) Not() {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.clearTail()
}

// Xor sets b = b XOR other in place. Lengths must match.
func (b *Bitmap) Xor(other *Bitmap) {
	b.checkLen(other)
	for i := range b.words {
		b.words[i] ^= other.words[i]
	}
}

func (b *Bitmap) checkLen(other *Bitmap) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitmap: length mismatch %d vs %d", b.n, other.n))
	}
}

// Any reports whether at least one bit is set.
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// All reports whether every bit is set.
func (b *Bitmap) All() bool { return b.Count() == b.n }

// Equal reports whether two bitmaps have identical length and contents.
func (b *Bitmap) Equal(other *Bitmap) bool {
	if b.n != other.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != other.words[i] {
			return false
		}
	}
	return true
}

// ForEachSet calls fn with the index of every set bit, ascending.
func (b *Bitmap) ForEachSet(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(wi*wordBits + tz)
			w &= w - 1
		}
	}
}

// Selected returns the indices of all set bits.
func (b *Bitmap) Selected() []int {
	out := make([]int, 0, b.Count())
	b.ForEachSet(func(i int) { out = append(out, i) })
	return out
}

// SizeBytes returns the in-memory footprint of the dense representation,
// used by the SmartIndex memory accountant.
func (b *Bitmap) SizeBytes() int { return 8*len(b.words) + 16 }

// Marshal serializes the bitmap to a portable byte form:
// [uvarint n][words little-endian].
func (b *Bitmap) Marshal() []byte {
	buf := make([]byte, binary.MaxVarintLen64+8*len(b.words))
	off := binary.PutUvarint(buf, uint64(b.n))
	for _, w := range b.words {
		binary.LittleEndian.PutUint64(buf[off:], w)
		off += 8
	}
	return buf[:off]
}

// Unmarshal parses the form produced by Marshal.
func Unmarshal(data []byte) (*Bitmap, error) {
	n, off := binary.Uvarint(data)
	if off <= 0 {
		return nil, fmt.Errorf("bitmap: bad header")
	}
	b := New(int(n))
	if len(data)-off != 8*len(b.words) {
		return nil, fmt.Errorf("bitmap: want %d payload bytes, have %d", 8*len(b.words), len(data)-off)
	}
	for i := range b.words {
		b.words[i] = binary.LittleEndian.Uint64(data[off:])
		off += 8
	}
	b.clearTail()
	return b, nil
}
