package encoding

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkEncodeIntsDelta(b *testing.B) {
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = int64(1700000000 + i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EncodeInt64s(vals)
	}
}

func BenchmarkEncodeIntsRLE(b *testing.B) {
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = int64(i / 512)
	}
	for i := 0; i < b.N; i++ {
		_ = EncodeInt64s(vals)
	}
}

func BenchmarkDecodeIntsDelta(b *testing.B) {
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = int64(1700000000 + i)
	}
	enc := EncodeInt64s(vals)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeInt64s(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeInt64s decodes packed chunks of one code width each.
func BenchmarkDecodeInt64s(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []uint{0, 6, 14, 44, 64} {
		vals := make([]int64, 4096)
		for i := range vals {
			vals[i] = int64(rng.Uint64() >> (64 - w))
		}
		enc := pack(0, vals, w, 0, false)
		b.Run(fmt.Sprintf("width=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeInt64s(enc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/value")
		})
	}
}

func BenchmarkEncodeStringsDict(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	words := []string{"weather", "music", "maps", "news"}
	vals := make([]string, 4096)
	for i := range vals {
		vals[i] = words[rng.Intn(len(words))]
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EncodeStrings(vals)
	}
}

func BenchmarkDecodeStringsDict(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	words := []string{"weather", "music", "maps", "news"}
	vals := make([]string, 4096)
	for i := range vals {
		vals[i] = words[rng.Intn(len(words))]
	}
	enc := EncodeStrings(vals)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeStrings(enc); err != nil {
			b.Fatal(err)
		}
	}
}
