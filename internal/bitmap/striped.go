package bitmap

import "fmt"

// Cache-line-striped bitmap layout. Nothing in the engine uses it: the
// SmartIndex hot tier it served was deleted (DESIGN.md, "SmartIndex: one
// tier"), and what remains is exactly what bench/layers.go compiles against
// for `bitmap.striped_and_ns_per_kbit`. The benchmark-only PR that drops
// that metric deletes this file.
//
// A Striped bitmap groups the word stream into stripes of 8 words — one
// 64-byte cache line each — and classifies every stripe as all-zeros,
// all-ones or mixed. Only mixed stripes occupy backing storage, packed
// contiguously in stripe order in a single arena slice. The layout is
// immutable after construction.
const (
	stripeWords = 8 // 8 × 8-byte words = one 64-byte cache line
	stripeBits  = stripeWords * wordBits
)

// Stripe tags.
const (
	stripeZeros uint8 = iota
	stripeOnes
	stripeMixed
)

// Striped is the immutable cache-line-striped form of a Bitmap.
type Striped struct {
	n      int      // number of valid bits
	nWords int      // words of the dense form
	tags   []uint8  // one tag per stripe
	offs   []int32  // per stripe: mixed-arena stripe ordinal, or -1 for uniform stripes
	words  []uint64 // mixed stripes only, stripeWords words each, stripe order
}

// Stripe converts a dense bitmap into the striped layout.
func Stripe(b *Bitmap) *Striped {
	nWords := len(b.words)
	nStripes := (nWords + stripeWords - 1) / stripeWords
	s := &Striped{
		n:      b.n,
		nWords: nWords,
		tags:   make([]uint8, nStripes),
		offs:   make([]int32, nStripes),
	}
	mixed := 0
	for si := 0; si < nStripes; si++ {
		lo, hi := si*stripeWords, (si+1)*stripeWords
		if hi > nWords {
			hi = nWords
		}
		zeros, ones := true, true
		for wi := lo; wi < hi; wi++ {
			w := b.words[wi]
			if w != 0 {
				zeros = false
			}
			if w != ^uint64(0) {
				ones = false
			}
			if !zeros && !ones {
				break
			}
		}
		switch {
		case zeros:
			s.tags[si] = stripeZeros
			s.offs[si] = -1
		case ones:
			s.tags[si] = stripeOnes
			s.offs[si] = -1
		default:
			s.tags[si] = stripeMixed
			s.offs[si] = int32(mixed)
			mixed++
		}
	}
	s.words = make([]uint64, mixed*stripeWords)
	for si := 0; si < nStripes; si++ {
		if s.tags[si] != stripeMixed {
			continue
		}
		lo, hi := si*stripeWords, (si+1)*stripeWords
		if hi > nWords {
			hi = nWords // tail stripe: trailing arena words stay zero
		}
		copy(s.words[int(s.offs[si])*stripeWords:], b.words[lo:hi])
	}
	return s
}

// AndInto sets dst = dst AND s word-at-a-time: all-ones stripes are skipped
// without a memory touch, all-zero stripes clear the destination line, and
// only mixed stripes read the arena.
func (s *Striped) AndInto(dst *Bitmap) {
	if dst.n != s.n {
		panic(fmt.Sprintf("bitmap: striped length mismatch %d vs %d", s.n, dst.n))
	}
	for si, tag := range s.tags {
		lo, hi := si*stripeWords, (si+1)*stripeWords
		if hi > s.nWords {
			hi = s.nWords
		}
		switch tag {
		case stripeOnes: // dst AND 1 = dst
		case stripeZeros:
			for wi := lo; wi < hi; wi++ {
				dst.words[wi] = 0
			}
		default:
			arena := s.words[int(s.offs[si])*stripeWords:]
			for wi := lo; wi < hi; wi++ {
				dst.words[wi] &= arena[wi-lo]
			}
		}
	}
}
