//go:build !race

package encoding

import (
	"fmt"
	"testing"
)

// A string chunk decodes in a few allocations, however many values it
// holds: its strings are cut from one copy of the section holding them. The
// race detector allocates on its own account, so the budget is checked only
// without it.
func TestReadStringsAllocatesPerChunk(t *testing.T) {
	dict, plain := make([]string, 4096), make([]string, 4096)
	for i := range dict {
		dict[i] = fmt.Sprintf("https://example.com/q/%d", i%1500)
		plain[i] = fmt.Sprintf("https://example.com/u/%d", i)
	}
	for _, tc := range []struct {
		name string
		vals []string
		tag  byte
	}{{"dictionary", dict, tagDictString}, {"plain", plain, tagPlainString}} {
		enc := EncodeStrings(tc.vals)
		if enc[0] != tc.tag {
			t.Fatalf("%s: encoded with tag %d, want %d", tc.name, enc[0], tc.tag)
		}
		checkStrings(t, tc.vals)
		if n := testing.AllocsPerRun(10, func() {
			if _, err := DecodeStrings(enc); err != nil {
				t.Fatal(err)
			}
		}); n > 3 {
			t.Errorf("%s chunk of %d values: %.0f allocations, want at most 3", tc.name, len(tc.vals), n)
		}
	}
}

// An int chunk decodes in one allocation, the values it returns, and encodes
// in at most two: both packed frames are sized in one pass over the values,
// with no scratch slice of differences.
func TestInt64ChunkAllocations(t *testing.T) {
	wide, steps, runs := make([]int64, 4096), make([]int64, 4096), make([]int64, 4096)
	for i := range wide {
		wide[i] = int64(i*7919%4096) << 30
		steps[i] = 1_700_000_000 + int64(i)*3
		runs[i] = int64(i / 512)
	}
	for _, tc := range []struct {
		name string
		vals []int64
		tag  byte
	}{{"packed", wide, tagPackedInt}, {"delta", steps, tagPackedDelta}, {"run-length", runs, tagRunLengthInt}} {
		enc := EncodeInt64s(tc.vals)
		if enc[0] != tc.tag {
			t.Fatalf("%s: encoded with tag %d, want %d", tc.name, enc[0], tc.tag)
		}
		if n := testing.AllocsPerRun(10, func() {
			if _, err := DecodeInt64s(enc); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("%s: decoding makes %.0f allocations, want 1", tc.name, n)
		}
		if n := testing.AllocsPerRun(10, func() { EncodeInt64s(tc.vals) }); n > 2 {
			t.Errorf("%s: encoding makes %.0f allocations, want at most 2", tc.name, n)
		}
	}
}
