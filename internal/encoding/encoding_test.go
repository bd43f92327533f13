package encoding

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestInt64RoundTripPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = rng.Int63() - rng.Int63() // wide range defeats delta/RLE
	}
	if enc := EncodeInt64s(vals); enc[0] != tagPackedInt || enc[2] != 64 {
		t.Errorf("wide ints: tag %d width %d, want packed at width 64", enc[0], enc[2])
	}
	checkInts(t, vals)
}

func TestInt64RoundTripDelta(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(1700000000 + i*3) // sorted timestamps: delta wins
	}
	enc := EncodeInt64s(vals)
	if enc[0] != tagPackedDelta {
		t.Errorf("sorted ints should use packed delta, got tag %d", enc[0])
	}
	if len(enc) >= 8*len(vals) {
		t.Errorf("delta encoding not smaller: %d bytes", len(enc))
	}
	checkInts(t, vals)
}

// A packed chunk of every code width decodes, at counts that end it anywhere
// in a byte and in the padded tail the decoder reads the last codes from.
func TestInt64PackedEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for w := uint(0); w <= 64; w++ {
		for _, n := range []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 100} {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = -5 + int64(rng.Uint64()>>(64-w)) // codes of w bits over the reference -5
			}
			got, err := DecodeInt64s(pack(0, vals, w, -5, false))
			if err != nil || !slices.Equal(got, vals) {
				t.Fatalf("width %d, %d values: got %v (%v), want %v", w, n, got, err, vals)
			}
			checkInts(t, vals)
		}
	}
}

func TestInt64RoundTripRLE(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i / 200) // long runs
	}
	enc := EncodeInt64s(vals)
	if enc[0] != tagRunLengthInt {
		t.Errorf("runs should use RLE, got tag %d", enc[0])
	}
	if len(enc) > 100 {
		t.Errorf("RLE encoding too large: %d bytes", len(enc))
	}
	checkInts(t, vals)
}

// A run longer than maxRun is written as several, each of which the decoder
// accepts.
func TestInt64LongRunSplit(t *testing.T) {
	vals := make([]int64, 3*maxRun+5)
	if enc := EncodeInt64s(vals); enc[0] != tagRunLengthInt || len(enc) != 1+3+3*4+2 {
		t.Errorf("tag %d, %d bytes; want four run-length runs", enc[0], len(enc))
	}
	checkInts(t, vals)
}

func TestInt64Extremes(t *testing.T) {
	checkInts(t, []int64{math.MaxInt64, math.MinInt64, 0, -1, 1})
	checkInts(t, nil)
	checkInts(t, []int64{42})
}

func checkInts(t *testing.T, vals []int64) {
	t.Helper()
	got, err := DecodeInt64s(EncodeInt64s(vals))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(vals) {
		t.Fatalf("len = %d, want %d", len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("vals[%d] = %d, want %d", i, got[i], vals[i])
		}
	}
}

func TestDecodeInt64sErrors(t *testing.T) {
	if _, err := DecodeInt64s(nil); err == nil {
		t.Error("empty should fail")
	}
	if _, err := DecodeInt64s([]byte{tagPackedInt}); err == nil {
		t.Error("missing length should fail")
	}
	if _, err := DecodeInt64s(append([]byte{tagPackedInt, 2, 8}, make([]byte, 9)...)); err == nil {
		t.Error("truncated payload should fail")
	}
	if _, err := DecodeInt64s([]byte{99, 1, 0}); err == nil {
		t.Error("unknown tag should fail")
	}
	// RLE run count overflowing declared length.
	bad := []byte{tagRunLengthInt, 2, 10, 0}
	if _, err := DecodeInt64s(bad); err == nil {
		t.Error("overflowing RLE run should fail")
	}
	// Zero-count RLE run loops forever unless rejected.
	bad2 := []byte{tagRunLengthInt, 2, 0, 0}
	if _, err := DecodeInt64s(bad2); err == nil {
		t.Error("zero-count RLE run should fail")
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	vals := []float64{0, 1.5, -2.25, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	got, err := DecodeFloat64s(EncodeFloat64s(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Errorf("vals[%d] = %v, want %v", i, got[i], vals[i])
		}
	}
}

func TestFloat64NaN(t *testing.T) {
	got, err := DecodeFloat64s(EncodeFloat64s([]float64{math.NaN()}))
	if err != nil || len(got) != 1 || !math.IsNaN(got[0]) {
		t.Errorf("NaN round trip: %v, %v", got, err)
	}
}

func TestFloat64Errors(t *testing.T) {
	if _, err := DecodeFloat64s(nil); err == nil {
		t.Error("empty should fail")
	}
	if _, err := DecodeFloat64s([]byte{tagPackedInt, 0}); err == nil {
		t.Error("wrong tag should fail")
	}
	if _, err := DecodeFloat64s([]byte{tagPlainFloat, 1, 0}); err == nil {
		t.Error("truncated should fail")
	}
}

func TestBoolRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 100} {
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = i%3 == 0
		}
		got, err := DecodeBools(EncodeBools(vals))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("n=%d vals[%d] = %v", n, i, got[i])
			}
		}
	}
}

func TestBoolErrors(t *testing.T) {
	if _, err := DecodeBools(nil); err == nil {
		t.Error("empty should fail")
	}
	if _, err := DecodeBools([]byte{tagPackedBool, 9, 0}); err == nil {
		t.Error("truncated should fail")
	}
}

func TestStringRoundTripPlain(t *testing.T) {
	vals := []string{"alpha", "beta", "", "日本語", "a\x00b", "long string with spaces"}
	enc := EncodeStrings(vals)
	if enc[0] != tagPlainString {
		t.Errorf("distinct strings should be plain, got tag %d", enc[0])
	}
	checkStrings(t, vals)
}

func TestStringRoundTripDict(t *testing.T) {
	vals := make([]string, 1000)
	for i := range vals {
		vals[i] = []string{"search", "map", "music"}[i%3]
	}
	enc := EncodeStrings(vals)
	if enc[0] != tagDictString {
		t.Errorf("low-cardinality strings should be dict, got tag %d", enc[0])
	}
	plain := encodePlainString(vals)
	if len(enc) >= len(plain) {
		t.Errorf("dict %d bytes not smaller than plain %d", len(enc), len(plain))
	}
	checkStrings(t, vals)
}

func checkStrings(t *testing.T, vals []string) {
	t.Helper()
	got, err := DecodeStrings(EncodeStrings(vals))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("len = %d, want %d", len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("vals[%d] = %q, want %q", i, got[i], vals[i])
		}
	}
}

func TestStringEmpty(t *testing.T) {
	checkStrings(t, nil)
	checkStrings(t, []string{""})
}

func TestDecodeStringsErrors(t *testing.T) {
	if _, err := DecodeStrings(nil); err == nil {
		t.Error("empty should fail")
	}
	if _, err := DecodeStrings([]byte{tagPlainString, 1, 5, 'a'}); err == nil {
		t.Error("truncated string should fail")
	}
	if _, err := DecodeStrings([]byte{tagDictString, 1, 1, 1, 'a', 9}); err == nil {
		t.Error("out-of-range dict code should fail")
	}
	if _, err := DecodeStrings([]byte{99, 0}); err == nil {
		t.Error("unknown tag should fail")
	}
}

func TestZigzagProperty(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntRoundTripProperty(t *testing.T) {
	f := func(vals []int64) bool {
		got, err := DecodeInt64s(EncodeInt64s(vals))
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStringRoundTripProperty(t *testing.T) {
	f := func(vals []string) bool {
		got, err := DecodeStrings(EncodeStrings(vals))
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// FuzzInt64RoundTrip: any []int64, taken from the input eight bytes to a
// value, decodes to itself, and its chunk is at most the values' eight bytes
// each plus a packed chunk's header.
func FuzzInt64RoundTrip(f *testing.F) {
	ints := func(vals ...int64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	steps, big := make([]int64, maxRun+2), make([]int64, maxRun+2)
	for i := range steps {
		steps[i], big[i] = int64(i)*3, 1<<40
	}
	f.Add([]byte{})
	f.Add(ints(math.MaxInt64, math.MinInt64, math.MaxInt64, 0, -1)) // differences wrap
	f.Add(ints(math.MinInt64, math.MaxInt64, math.MinInt64+1))
	f.Add(ints(steps...))                       // one step over more than maxRun values
	f.Add(ints(big...))                         // one value over more than maxRun values
	f.Add(ints(1, 2, 3, 1<<40, 5, 6, 7, 8, -9)) // one outlier widens the frame
	f.Fuzz(func(t *testing.T, b []byte) {
		vals := make([]int64, len(b)/8)
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
		enc := EncodeInt64s(vals)
		if limit := 8*len(vals) + 1 + uvarintLen(uint64(len(vals))) + 9; len(enc) > limit {
			t.Fatalf("%d values encode to %d bytes, over %d", len(vals), len(enc), limit)
		}
		got, err := DecodeInt64s(enc)
		if err != nil || !slices.Equal(got, vals) {
			t.Fatalf("round trip of %v: got %v (%v)", vals, got, err)
		}
	})
}
