package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/types"
)

// TestGroupKeyInjective is the regression test for the NUL-joined encoding,
// which merged distinct GROUP BY tuples whenever a string value contained a
// NUL followed by a byte that parsed as a type tag.
func TestGroupKeyInjective(t *testing.T) {
	s := func(vals ...string) []types.Value {
		out := make([]types.Value, len(vals))
		for i, v := range vals {
			out[i] = types.NewString(v)
		}
		return out
	}
	tuples := [][]types.Value{
		s("a\x00", "b"),
		s("a", "\x00b"),
		s("a\x00\x04b"), // embeds what used to be separator + type tag
		s("a", "b"),
		s("ab"),
		s("a", ""),
		s("", "a"),
		s(""),
		{},
		{types.NewInt(1)},
		{types.NewString("1")},
		{types.NewFloat(1.5)}, // DOUBLE 1 is SQL-equal to BIGINT 1 and shares its key
		{types.NullValue()},
		{types.NewInt(12), types.NewInt(3)},
		{types.NewInt(1), types.NewInt(23)},
	}
	seen := make(map[string]int)
	for i, tup := range tuples {
		k := GroupKey(tup)
		if j, dup := seen[k]; dup {
			t.Errorf("tuples %d and %d collide on key %q", j, i, k)
		}
		seen[k] = i
	}
}

// TestGroupKeyDeterministic: equal tuples must keep mapping to equal keys
// (the property Merge and the dimension hash join rely on).
func TestGroupKeyDeterministic(t *testing.T) {
	a := []types.Value{types.NewString("x\x00y"), types.NewInt(-5)}
	b := []types.Value{types.NewString("x\x00y"), types.NewInt(-5)}
	if GroupKey(a) != GroupKey(b) {
		t.Fatal("equal tuples produced different keys")
	}
}

// keyEqualityHolds checks the keys ka and kb of two tuples against SQL
// equality: the keys are equal exactly when the tuples are types.Equal at
// every position.
func keyEqualityHolds(a, b []types.Value, ka, kb string) string {
	equal := len(a) == len(b)
	for i := 0; equal && i < len(a); i++ {
		equal = types.Equal(a[i], b[i])
	}
	switch {
	case ka == kb && !equal:
		return fmt.Sprintf("%v and %v share key %q but are not equal", a, b, ka)
	case ka != kb && equal:
		return fmt.Sprintf("%v and %v are equal but key %q and %q", a, b, ka, kb)
	}
	return ""
}

// TestGroupKeyIsSQLEquality: over a corpus of edge values, one- and
// two-value tuples share a key exactly when they are SQL-equal at every
// position.
func TestGroupKeyIsSQLEquality(t *testing.T) {
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff4000000000abc)
	corpus := []types.Value{
		types.NullValue(),
		types.NewInt(0), types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)),
		types.NewFloat(nan1), types.NewFloat(nan2), types.NewFloat(math.NaN()),
		types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)),
		types.NewInt(3), types.NewFloat(3), types.NewFloat(3.5), types.NewInt(-3), types.NewFloat(-3),
		types.NewInt(math.MinInt64), types.NewFloat(-1 << 63), types.NewFloat(math.Nextafter(-1<<63, -math.MaxFloat64)),
		types.NewInt(math.MaxInt64), types.NewFloat(1 << 63), types.NewFloat(math.Nextafter(1<<63, 0)), types.NewInt(1<<63 - 1024),
		types.NewInt(1<<53 - 1), types.NewInt(1 << 53), types.NewInt(1<<53 + 1), types.NewFloat(1 << 53), types.NewFloat(1<<53 + 2),
		types.NewInt(-1<<53 - 1), types.NewFloat(-1 << 53),
		types.NewBool(false), types.NewBool(true),
		types.NewString(""), types.NewString("3"), types.NewString(`q"uote`), types.NewString("a\x00"), types.NewString("\x00b"),
		types.NewString("\xff\xfe"), types.NewString("é"),
		types.NewString(strings.Repeat("é", 100)), types.NewString(strings.Repeat("é", 100) + "\x00"), // two-byte lengths
	}
	var tuples [][]types.Value
	for _, v := range corpus {
		tuples = append(tuples, []types.Value{v})
	}
	for _, v := range corpus {
		for _, w := range corpus {
			tuples = append(tuples, []types.Value{v, w})
		}
	}
	s := types.NewString
	tuples = append(tuples, nil,
		[]types.Value{s("a\x00"), s("b")}, []types.Value{s("a"), s("\x00b")},
		[]types.Value{s("ab")}, []types.Value{s("a"), s("b")}, []types.Value{s(""), s("a")}, []types.Value{s("a"), s("")})
	keys := make([]string, len(tuples))
	for i, tup := range tuples {
		keys[i] = GroupKey(tup)
	}
	for i := range tuples {
		for j := range tuples {
			if msg := keyEqualityHolds(tuples[i], tuples[j], keys[i], keys[j]); msg != "" {
				t.Fatal(msg)
			}
		}
	}
	if GroupKey([]types.Value{types.NewFloat(3)}) != GroupKey([]types.Value{types.NewInt(3)}) {
		t.Fatal("3.0 and 3 must share a key")
	}
	if got := AppendGroupKey([]byte("prefix"), corpus[:2]); string(got) != "prefix"+GroupKey(corpus[:2]) {
		t.Fatalf("AppendGroupKey does not append: %q", got)
	}
}

// FuzzGroupKey checks keyEqualityHolds on two fuzzed tuples, and on each
// tuple against a copy whose numbers switch between BIGINT and DOUBLE where
// the value survives the switch.
func FuzzGroupKey(f *testing.F) {
	f.Add([]byte{1, 3, 0, 0, 0, 0, 0, 0, 0}, []byte{2, 0, 0, 0, 0, 0, 0, 8, 0x40})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0x80}, []byte{2, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f}, []byte{0x0c, 'a', 0, 0x04, 'b'})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ta, tb := fuzzTuple(a), fuzzTuple(b)
		for _, pair := range [][2][]types.Value{{ta, tb}, {ta, switchNumbers(ta)}, {tb, switchNumbers(tb)}} {
			if msg := keyEqualityHolds(pair[0], pair[1], GroupKey(pair[0]), GroupKey(pair[1])); msg != "" {
				t.Fatal(msg)
			}
		}
	})
}

// fuzzTuple reads up to four values from b: a tag byte picks the type (and,
// for a string, its length), then eight bytes of payload for a number.
func fuzzTuple(b []byte) []types.Value {
	var out []types.Value
	for len(b) > 0 && len(out) < 4 {
		tag := b[0]
		b = b[1:]
		var w [8]byte
		switch tag % 5 {
		case 0:
			out = append(out, types.NullValue())
		case 1:
			b = b[copy(w[:], b):]
			out = append(out, types.NewInt(int64(binary.LittleEndian.Uint64(w[:]))))
		case 2:
			b = b[copy(w[:], b):]
			out = append(out, types.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(w[:]))))
		case 3:
			out = append(out, types.NewBool(tag&8 != 0))
		case 4:
			n := min(int(tag>>3), len(b))
			out = append(out, types.NewString(string(b[:n])))
			b = b[n:]
		}
	}
	return out
}

// switchNumbers returns a copy of tup with each BIGINT that a DOUBLE holds
// exactly written as that DOUBLE, and each integral DOUBLE in int64 range as
// a BIGINT.
func switchNumbers(tup []types.Value) []types.Value {
	out := slices.Clone(tup)
	for i, v := range out {
		switch {
		case v.T == types.Int64 && int64(float64(v.I)) == v.I && float64(v.I) < 1<<63:
			out[i] = types.NewFloat(float64(v.I))
		case v.T == types.Float64 && v.F == math.Trunc(v.F) && v.F >= -1<<63 && v.F < 1<<63:
			out[i] = types.NewInt(int64(v.F))
		}
	}
	return out
}
