package bitmap

import (
	"fmt"
	"math/rand"
	"testing"
)

// stripedPatterns builds the adversarial pattern matrix for one length:
// uniform extremes, single bits at the edges, word-boundary stripes,
// alternating runs, and seeded random fills at skewed densities — the shapes
// that exercise every tag kind, the trailing partial word and the partial
// tail stripe.
func stripedPatterns(n int) map[string]*Bitmap {
	pats := map[string]*Bitmap{
		"empty": New(n),
		"full":  NewFull(n),
	}
	first := New(n)
	first.Set(0)
	pats["first-bit"] = first
	last := New(n)
	last.Set(n - 1)
	pats["last-bit"] = last

	alt := New(n)
	for i := 0; i < n; i += 2 {
		alt.Set(i)
	}
	pats["alternating-bits"] = alt

	// Whole words alternate all-ones / all-zeros: mixed stripes made of
	// uniform words, plus a partial trailing word.
	altWords := New(n)
	for i := 0; i < n; i++ {
		if (i/wordBits)%2 == 0 {
			altWords.Set(i)
		}
	}
	pats["alternating-words"] = altWords

	// Whole stripes alternate: pure all-ones and all-zero cache lines.
	altStripes := New(n)
	for i := 0; i < n; i++ {
		if (i/stripeBits)%2 == 0 {
			altStripes.Set(i)
		}
	}
	pats["alternating-stripes"] = altStripes

	run := New(n)
	for i := 0; i < (2*n+2)/3; i++ {
		run.Set(i)
	}
	pats["leading-ones-run"] = run

	tail := New(n)
	for i := n / 3; i < n; i++ {
		tail.Set(i)
	}
	pats["trailing-ones-run"] = tail

	rng := rand.New(rand.NewSource(int64(n)))
	for _, density := range []float64{0.01, 0.5, 0.99} {
		b := New(n)
		for i := 0; i < n; i++ {
			if rng.Float64() < density {
				b.Set(i)
			}
		}
		pats[fmt.Sprintf("random-%.0f%%", density*100)] = b
	}
	return pats
}

// stripedLens covers word and stripe boundaries from both sides, a lone
// partial word, and multi-stripe sizes with and without a partial tail.
var stripedLens = []int{1, 63, 64, 65, 511, 512, 513, 1000, 1024, 4095, 4096, 4097}

func forEachPattern(t *testing.T, fn func(t *testing.T, name string, n int, b *Bitmap)) {
	t.Helper()
	for _, n := range stripedLens {
		for name, b := range stripedPatterns(n) {
			fn(t, name, n, b)
		}
	}
}

func TestStripedCombineKernels(t *testing.T) {
	forEachPattern(t, func(t *testing.T, name string, n int, b *Bitmap) {
		s := Stripe(b)
		// The destination mixes densities so every stripe kind meets set,
		// clear and partial destination words.
		rng := rand.New(rand.NewSource(int64(n) * 31))
		dst := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				dst.Set(i)
			}
		}

		and := dst.Clone()
		s.AndInto(and)
		wantAnd := dst.Clone()
		wantAnd.And(b)
		if !and.Equal(wantAnd) {
			t.Fatalf("%s n=%d: AndInto mismatch", name, n)
		}
	})
}

func TestStripedPanics(t *testing.T) {
	s := Stripe(NewFull(100))
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("AndInto length mismatch", func() { s.AndInto(New(101)) })
}
