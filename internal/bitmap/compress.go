package bitmap

import (
	"encoding/binary"

	"repro/internal/types"
)

// Compressed is an RLE-compressed bitmap, the parked form used by the
// SmartIndex cache. Predicate-result bitmaps are typically highly skewed
// (most predicates select few rows or most rows), so run-length encoding of
// the word stream compresses well while staying cheap to expand.
//
// Encoding: a sequence of runs. Each run is either
//   - a fill run: uvarint(count<<2 | 0b01) for all-zero words, or
//     uvarint(count<<2 | 0b11) for all-one words; or
//   - a literal run: uvarint(count<<2 | 0b00) followed by count raw words.
type Compressed struct {
	n    int // number of bits
	data []byte
}

const (
	runLiteral = 0b00
	runZeros   = 0b01
	runOnes    = 0b11
)

// Compress converts a dense bitmap to its RLE form.
func Compress(b *Bitmap) *Compressed {
	var data []byte
	var tmp [binary.MaxVarintLen64]byte
	words := b.words
	emitFill := func(count int, kind uint64) {
		n := binary.PutUvarint(tmp[:], uint64(count)<<2|kind)
		data = append(data, tmp[:n]...)
	}
	emitLiteral := func(ws []uint64) {
		n := binary.PutUvarint(tmp[:], uint64(len(ws))<<2|runLiteral)
		data = append(data, tmp[:n]...)
		for _, w := range ws {
			binary.LittleEndian.PutUint64(tmp[:8], w)
			data = append(data, tmp[:8]...)
		}
	}
	i := 0
	for i < len(words) {
		w := words[i]
		if w == 0 || w == ^uint64(0) {
			j := i + 1
			for j < len(words) && words[j] == w {
				j++
			}
			// Only worth a fill run if it actually saves space versus
			// literals (a run of 1 identical word is still fine as fill:
			// 1-2 varint bytes beat 8 literal bytes).
			if w == 0 {
				emitFill(j-i, runZeros)
			} else {
				emitFill(j-i, runOnes)
			}
			i = j
			continue
		}
		// Literal run: extend until the next fillable word.
		j := i + 1
		for j < len(words) && words[j] != 0 && words[j] != ^uint64(0) {
			j++
		}
		emitLiteral(words[i:j])
		i = j
	}
	return &Compressed{n: b.n, data: data}
}

// Decompress expands the RLE form back to a dense bitmap.
func (c *Compressed) Decompress() (*Bitmap, error) {
	b := New(c.n)
	r := types.NewReader(c.data)
	wi := 0
	for len(r.Rest()) > 0 {
		hdr := r.Uvarint()
		if hdr>>2 > uint64(len(b.words)-wi) {
			r.Fail("compressed run overflows the bitmap")
			break
		}
		count := int(hdr >> 2)
		switch hdr & 0b11 {
		case runZeros:
			// words are already zero
		case runOnes:
			for k := wi; k < wi+count; k++ {
				b.words[k] = ^uint64(0)
			}
		case runLiteral:
			if p := r.Next(8 * count); p != nil {
				for k := range count {
					b.words[wi+k] = binary.LittleEndian.Uint64(p[8*k:])
				}
			}
		default:
			r.Fail("unknown compressed run kind")
		}
		wi += count
	}
	if r.Err() == nil && wi != len(b.words) {
		r.Fail("compressed form does not cover the bitmap")
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	b.clearTail()
	return b, nil
}

// Len returns the number of bits in the decompressed bitmap.
func (c *Compressed) Len() int { return c.n }

// SizeBytes returns the in-memory footprint of the compressed form.
func (c *Compressed) SizeBytes() int { return len(c.data) + 16 }
