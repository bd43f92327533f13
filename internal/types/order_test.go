package types_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/types"
)

// orderCorpus holds the values an order of numbers most easily gets wrong:
// NaNs with different payloads, both zeros, both infinities, and
// BIGINT/DOUBLE pairs around ±2^53 and at the ends of int64.
var orderCorpus = []types.Value{
	types.NullValue(),
	types.NewFloat(math.NaN()), types.NewFloat(math.Float64frombits(0xfff4000000000abc)),
	types.NewFloat(math.Inf(-1)), types.NewFloat(math.Inf(1)),
	types.NewInt(0), types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)),
	types.NewInt(7), types.NewFloat(7), types.NewFloat(7.5), types.NewFloat(-7.5), types.NewInt(-7),
	types.NewInt(1<<53 - 1), types.NewInt(1 << 53), types.NewInt(1<<53 + 1), types.NewInt(1<<53 + 2),
	types.NewFloat(1 << 53), types.NewFloat(1<<53 + 2), types.NewInt(-1<<53 - 1), types.NewFloat(-1 << 53),
	types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64), types.NewFloat(1 << 63), types.NewFloat(-1 << 63),
	types.NewFloat(math.Nextafter(1<<63, 0)), types.NewFloat(math.Nextafter(-1<<63, math.Inf(-1))),
	types.NewBool(false), types.NewBool(true), types.NewString(""), types.NewString("7"),
}

// TestCompareSpecialValues pins the order's choices: NaN equals NaN and sorts
// below every number, -0 equals 0, and BIGINT against DOUBLE is exact past
// ±2^53.
func TestCompareSpecialValues(t *testing.T) {
	nan, negZero := types.NewFloat(math.NaN()), types.NewFloat(math.Copysign(0, -1))
	for _, c := range []struct {
		a, b types.Value
		want int
	}{
		{nan, types.NewFloat(math.Float64frombits(0xfff4000000000abc)), 0},
		{nan, types.NewFloat(math.Inf(-1)), -1},
		{nan, types.NewInt(math.MinInt64), -1},
		{types.NullValue(), nan, -1},
		{negZero, types.NewFloat(0), 0},
		{negZero, types.NewInt(0), 0},
		{types.NewInt(1<<53 + 1), types.NewFloat(1 << 53), 1},
		{types.NewInt(1<<53 + 1), types.NewFloat(1<<53 + 2), -1},
		{types.NewInt(-1<<53 - 1), types.NewFloat(-1 << 53), -1},
		{types.NewInt(math.MaxInt64), types.NewFloat(1 << 63), -1},
		{types.NewInt(math.MinInt64), types.NewFloat(-1 << 63), 0},
		{types.NewInt(-3), types.NewFloat(-2.5), -1},
		{types.NewInt(-2), types.NewFloat(-2.5), 1},
	} {
		if got, err := types.Compare(c.a, c.b); err != nil || got != c.want {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
}

// TestValueAs: a literal converts to a column's type only when that type
// holds it exactly; NULL and NaN convert to nothing.
func TestValueAs(t *testing.T) {
	for _, c := range []struct {
		v    types.Value
		t    types.Type
		want types.Value
		ok   bool
	}{
		{types.NewFloat(3), types.Int64, types.NewInt(3), true},
		{types.NewFloat(math.Copysign(0, -1)), types.Int64, types.NewInt(0), true},
		{types.NewFloat(-1 << 63), types.Int64, types.NewInt(math.MinInt64), true},
		{types.NewFloat(1 << 63), types.Int64, types.Value{}, false},
		{types.NewFloat(2.5), types.Int64, types.Value{}, false},
		{types.NewFloat(math.Inf(1)), types.Int64, types.Value{}, false},
		{types.NewInt(1 << 53), types.Float64, types.NewFloat(1 << 53), true},
		{types.NewInt(1<<53 + 1), types.Float64, types.Value{}, false},
		{types.NewInt(math.MaxInt64), types.Float64, types.Value{}, false},
		{types.NewFloat(math.Inf(1)), types.Float64, types.NewFloat(math.Inf(1)), true},
		{types.NewFloat(math.NaN()), types.Float64, types.Value{}, false},
		{types.NullValue(), types.Int64, types.Value{}, false},
		{types.NewString("a"), types.String, types.NewString("a"), true},
		{types.NewString("1"), types.Int64, types.Value{}, false},
	} {
		if got, ok := c.v.As(c.t); ok != c.ok || got != c.want {
			t.Errorf("%v.As(%s) = %v, %v; want %v, %v", c.v, c.t, got, ok, c.want, c.ok)
		}
	}
}

// FuzzCompare checks that Compare is an order and that Equal is the group
// key's equality: antisymmetry for every pair, transitivity for every triple,
// and Equal(a, b) exactly when exec.AppendGroupKey writes a and b alike. The
// three fuzzed values, each beside its twin of the other numeric type, are
// checked together with orderCorpus.
func FuzzCompare(f *testing.F) {
	f.Add(uint8(2), uint64(0x7ff8000000000001), uint8(1), uint64(1<<53+1), uint8(2), math.Float64bits(1<<53))
	f.Add(uint8(1), uint64(1<<63), uint8(2), math.Float64bits(-1<<63), uint8(2), math.Float64bits(math.Copysign(0, -1)))
	f.Add(uint8(4), uint64(0x37), uint8(3), uint64(1), uint8(0), uint64(0))
	f.Fuzz(func(t *testing.T, ta uint8, a uint64, tb uint8, b uint64, tc uint8, c uint64) {
		fuzzed := []types.Value{fuzzValue(ta, a), fuzzValue(tb, b), fuzzValue(tc, c)}
		for _, v := range fuzzed[:3] {
			if w, ok := twin(v); ok {
				fuzzed = append(fuzzed, w)
			}
		}
		checkOrder(t, append(fuzzed, orderCorpus...))
	})
}

// fuzzValue makes one value from a type tag and eight bytes of payload.
func fuzzValue(tag uint8, bits uint64) types.Value {
	switch tag % 5 {
	case 0:
		return types.NullValue()
	case 1:
		return types.NewInt(int64(bits))
	case 2:
		return types.NewFloat(math.Float64frombits(bits))
	case 3:
		return types.NewBool(bits&1 != 0)
	default:
		return types.NewString(string(binary.LittleEndian.AppendUint64(nil, bits))[:tag>>5])
	}
}

// twin is v as the other numeric type, rounded or truncated where that type
// cannot hold it: the value nearest v on the other side of the type line.
func twin(v types.Value) (types.Value, bool) {
	switch {
	case v.T == types.Int64:
		return types.NewFloat(float64(v.I)), true
	case v.T == types.Float64 && v.F >= -1<<63 && v.F < 1<<63:
		return types.NewInt(int64(v.F)), true
	}
	return types.Value{}, false
}

// checkOrder compares every pair of vals once and checks antisymmetry and
// the group key for each pair, and transitivity for each triple that Compare
// orders at all.
func checkOrder(t *testing.T, vals []types.Value) {
	n := len(vals)
	ord, ok := make([]int, n*n), make([]bool, n*n)
	for i, a := range vals {
		for j, b := range vals {
			c, err := types.Compare(a, b)
			ord[i*n+j], ok[i*n+j] = c, err == nil
		}
	}
	for i, a := range vals {
		ka := exec.AppendGroupKey(nil, []types.Value{a})
		for j, b := range vals {
			if ab, ba := i*n+j, j*n+i; ok[ab] != ok[ba] || ord[ab] != -ord[ba] || ord[ab] < -1 || ord[ab] > 1 {
				t.Fatalf("Compare(%v, %v) = %d, %v but Compare(%v, %v) = %d, %v", a, b, ord[ab], ok[ab], b, a, ord[ba], ok[ba])
			}
			kb := exec.AppendGroupKey(nil, []types.Value{b})
			if equal := ok[i*n+j] && ord[i*n+j] == 0; equal != bytes.Equal(ka, kb) || equal != types.Equal(a, b) {
				t.Fatalf("%v and %v: Equal = %v, Compare = %d, but the group keys are %q and %q", a, b, types.Equal(a, b), ord[i*n+j], ka, kb)
			}
			for k, c := range vals {
				if xy, yz, xz := i*n+j, j*n+k, i*n+k; ok[xy] && ok[yz] && ok[xz] && ord[xy] <= 0 && ord[yz] <= 0 && ord[xz] > 0 {
					t.Fatalf("%v <= %v <= %v but Compare(%v, %v) = %d", a, b, c, a, c, ord[xz])
				}
			}
		}
	}
}
