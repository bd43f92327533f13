package encoding

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInt64RoundTripPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = rng.Int63() - rng.Int63() // wide range defeats delta/RLE
	}
	checkInts(t, vals)
}

func TestInt64RoundTripDelta(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(1700000000 + i*3) // sorted timestamps: delta wins
	}
	enc := EncodeInt64s(vals)
	if enc[0] != tagDeltaVarint {
		t.Errorf("sorted ints should use delta, got tag %d", enc[0])
	}
	if len(enc) >= 8*len(vals) {
		t.Errorf("delta encoding not smaller: %d bytes", len(enc))
	}
	checkInts(t, vals)
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
	if _, err := DecodeInt64s([]byte{tagPlainInt}); err == nil {
		t.Error("missing length should fail")
	}
	if _, err := DecodeInt64s([]byte{tagPlainInt, 2, 0, 0}); err == nil {
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
	if _, err := DecodeFloat64s([]byte{tagPlainInt, 0}); err == nil {
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
