package types

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// sameValue is bit-exact equality: NaN equals NaN, 0.0 differs from -0.0,
// and only the field the type tag selects may be set.
func sameValue(a, b Value) bool {
	return a.T == b.T && a.I == b.I && a.S == b.S && a.B == b.B &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

func sameRows(t *testing.T, got, want [][]Value) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("rows: got %d (nil=%v), want %d (nil=%v)", len(got), got == nil, len(want), want == nil)
	}
	for i := range want {
		if (got[i] == nil) != (want[i] == nil) || len(got[i]) != len(want[i]) {
			t.Fatalf("row %d: got %d values (nil=%v), want %d (nil=%v)", i, len(got[i]), got[i] == nil, len(want[i]), want[i] == nil)
		}
		for j := range want[i] {
			if !sameValue(got[i][j], want[i][j]) {
				t.Fatalf("row %d col %d: got %#v, want %#v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func roundTripRows(t *testing.T, rows [][]Value) {
	t.Helper()
	enc := AppendRows([]byte{0xAA}, rows) // a prefix must be left alone
	got, rest, err := decodeRows(append(enc[1:], 0xBB))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(rest) != 1 || rest[0] != 0xBB {
		t.Fatalf("decode consumed the wrong number of bytes: rest %x", rest)
	}
	sameRows(t, got, rows)
}

// interesting holds the values a typed codec most easily gets wrong.
var interesting = []Value{
	NullValue(),
	NewInt(0), NewInt(-1), NewInt(math.MinInt64), NewInt(math.MaxInt64),
	NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(math.NaN()), NewFloat(math.Inf(-1)),
	NewFloat(math.Float64frombits(0x7ff8000000000123)), // NaN with a payload
	NewBool(true), NewBool(false),
	NewString(""), NewString("a"), NewString("héllo, 世界 🌍"), NewString("\x00\xff"),
	NewString(string(make([]byte, 300))), // length needs two varint bytes
}

func TestBatchRoundTripShapes(t *testing.T) {
	col := func(vs ...Value) [][]Value {
		rows := make([][]Value, len(vs))
		for i, v := range vs {
			rows[i] = []Value{v}
		}
		return rows
	}
	cases := map[string][][]Value{
		"nil":              nil,
		"empty":            {},
		"one nil row":      {nil},
		"one empty row":    {{}},
		"zero columns":     {{}, {}, {}},
		"nil and empty":    {nil, {}, nil},
		"ragged":           {{NewInt(1)}, {}, {NewString("x"), NewFloat(2.5), NullValue()}, nil},
		"all null":         col(NullValue(), NullValue(), NullValue()),
		"ints":             col(NewInt(1), NewInt(-2), NewInt(3)),
		"ints with nulls":  col(NewInt(1), NullValue(), NewInt(3), NullValue(), NullValue(), NewInt(6), NewInt(7), NewInt(8), NullValue()),
		"floats":           col(NewFloat(math.NaN()), NewFloat(math.Copysign(0, -1)), NewFloat(1.5)),
		"bools":            col(NewBool(true), NewBool(false), NullValue(), NewBool(true), NewBool(true), NewBool(false), NewBool(false), NewBool(true), NewBool(true)),
		"strings":          col(NewString(""), NewString("héllo"), NullValue(), NewString("世界")),
		"mixed int float":  col(NewInt(1), NewFloat(1), NullValue(), NewString("1"), NewBool(true)),
		"every value":      col(interesting...),
		"two typed cols":   {{NewInt(1), NewString("a")}, {NewInt(2), NewString("")}, {NullValue(), NullValue()}},
		"mixed second col": {{NewInt(1), NewString("a")}, {NewInt(2), NewFloat(2)}},
	}
	for name, rows := range cases {
		t.Run(name, func(t *testing.T) { roundTripRows(t, rows) })
	}
}

// A rectangular batch whose values all agree with reflect.DeepEqual's idea
// of equality must come back DeepEqual: the payload conformance test of the
// cluster package relies on it.
func TestBatchRoundTripDeepEqual(t *testing.T) {
	rows := [][]Value{
		{NewInt(1), NewString("a"), NewBool(true), NullValue(), NewFloat(1.5)},
		{NewInt(2), NewString(""), NewBool(false), NullValue(), NewFloat(-2)},
	}
	got, _, err := decodeRows(AppendRows(nil, rows))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("got %#v, want %#v", got, rows)
	}
}

func TestBatchRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randValue := func(types int) Value {
		switch rng.Intn(types) {
		case 0:
			return interesting[rng.Intn(len(interesting))]
		case 1:
			return NewInt(rng.Int63() - rng.Int63())
		case 2:
			return NewFloat(rng.NormFloat64())
		case 3:
			return NewBool(rng.Intn(2) == 0)
		default:
			b := make([]byte, rng.Intn(40))
			rng.Read(b)
			return NewString(string(b))
		}
	}
	for iter := 0; iter < 300; iter++ {
		n, w := rng.Intn(70), rng.Intn(6)
		ragged := rng.Intn(4) == 0
		rows := make([][]Value, n)
		// A column is either one random type with NULLs, or anything.
		colType := make([]int, w)
		for j := range colType {
			colType[j] = rng.Intn(6)
		}
		for i := range rows {
			width := w
			if ragged {
				width = rng.Intn(w + 1)
			}
			rows[i] = make([]Value, width)
			for j := range rows[i] {
				switch {
				case rng.Intn(5) == 0:
					rows[i][j] = NullValue()
				case colType[j] == 5:
					rows[i][j] = randValue(5)
				default:
					for {
						if v := randValue(5); v.T == Type(colType[j]) || colType[j] == 0 {
							rows[i][j] = v
							break
						}
					}
				}
			}
		}
		roundTripRows(t, rows)
	}
}

// A value whose type tag is not a Type cannot be decoded: the receiver
// reports it, the sender does not panic.
func TestBatchUnknownTypeTagRejected(t *testing.T) {
	enc := AppendRows(nil, [][]Value{{{T: Type(9), I: 4}}})
	if _, _, err := decodeRows(enc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// Hostile headers: the declared shape must be checked against the bytes
// present before anything is allocated for it.
func TestBatchHostileCountsDoNotAllocate(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	cases := map[string][]byte{
		"rows":         huge,
		"rect width":   append(append(binary.AppendUvarint(nil, 3), rowsRect), huge...),
		"ragged width": append(append(binary.AppendUvarint(nil, 2), rowsRagged), huge...),
		"rect columns": append(append(binary.AppendUvarint(nil, 1<<20), rowsRect), binary.AppendUvarint(nil, 1<<20)...),
	}
	for name, b := range cases {
		allocs := testing.AllocsPerRun(10, func() {
			if _, _, err := decodeRows(b); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
			}
		})
		if allocs > 4 { // the error value itself
			t.Errorf("%s: %v allocations before rejecting the header", name, allocs)
		}
	}
}

func TestSchemaGobRoundTripAndCorruption(t *testing.T) {
	s := MustSchema(Field{Name: "a", Type: Int64}, Field{Name: "b.c", Type: String, Repeated: true}, Field{Name: "é", Type: Bool})
	b, err := s.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var got Schema
	if err := got.GobDecode(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, s) || got.Index("b.c") != 1 {
		t.Fatalf("got %+v, want %+v", got, s)
	}
	for cut := 0; cut < len(b); cut++ {
		var bad Schema
		if err := bad.GobDecode(b[:cut]); err == nil && cut != 0 {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if err := new(Schema).GobDecode(binary.AppendUvarint(nil, 1<<40)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("huge field count: %v", err)
	}
}

// FuzzDecodeBatch: arbitrary bytes either decode or fail with
// ErrCorrupt — no panic — and what decodes is no larger than the input
// can pay for (eight values per byte: a bit-packed boolean column is the
// densest encoding there is) and re-encodes to something that decodes to
// the same rows.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1})
	f.Add(AppendRows(nil, [][]Value{{NewInt(1), NewString("a")}, {NullValue(), NewString("")}}))
	f.Add(AppendRows(nil, [][]Value{{NewFloat(math.NaN())}, {}, nil}))
	var col [][]Value
	for _, v := range interesting {
		col = append(col, []Value{v, NewBool(true)})
	}
	f.Add(AppendRows(nil, col))
	f.Add(append(append(binary.AppendUvarint(nil, 1<<30), rowsRect), 1, byte(Bool), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, rest, err := decodeRows(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		used := len(data) - len(rest)
		total := 0
		for _, r := range rows {
			total += len(r)
		}
		if len(rows) > 8*used+1 || total > 8*used {
			t.Fatalf("%d rows / %d values decoded from %d bytes", len(rows), total, used)
		}
		again, rest2, err := decodeRows(AppendRows(nil, rows))
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-encoded batch does not decode: %v (rest %d)", err, len(rest2))
		}
		sameRows(t, again, rows)
	})
}

// Every width boundary of the narrow integer arrays, both signs.
func TestIntsWidthBoundaries(t *testing.T) {
	for _, tc := range []struct {
		vals  []int64
		width byte
	}{
		{nil, 1},
		{[]int64{0, 0}, 1},
		{[]int64{math.MinInt8, math.MaxInt8}, 1},
		{[]int64{math.MaxInt8 + 1}, 2},
		{[]int64{math.MinInt8 - 1, 5}, 2},
		{[]int64{math.MinInt16, math.MaxInt16}, 2},
		{[]int64{math.MaxInt16 + 1}, 4},
		{[]int64{math.MinInt32, math.MaxInt32}, 4},
		{[]int64{math.MinInt32 - 1}, 8},
		{[]int64{math.MinInt64, math.MaxInt64, 0, -1}, 8},
	} {
		enc := AppendInts(nil, tc.vals)
		if enc[0] != tc.width || len(enc) != 1+len(tc.vals)*int(tc.width) {
			t.Errorf("%v: width %d, %d bytes; want width %d", tc.vals, enc[0], len(enc), tc.width)
		}
		got := make([]int64, len(tc.vals))
		rest, err := decodeInts(append(enc, 0xCC), got)
		if err != nil || len(rest) != 1 || !reflect.DeepEqual(got, append([]int64{}, tc.vals...)) {
			t.Errorf("%v: decoded %v, rest %x, err %v", tc.vals, got, rest, err)
		}
		if len(tc.vals) > 0 {
			if _, err := decodeInts(enc[:len(enc)-1], got); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%v: truncated array accepted: %v", tc.vals, err)
			}
		}
	}
	if _, err := decodeInts([]byte{3, 0, 0, 0}, make([]int64, 1)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("width 3 accepted: %v", err)
	}
}

// decodeRows reads one batch from the head of b and returns what is left.
func decodeRows(b []byte) ([][]Value, []byte, error) {
	r := NewReader(b)
	rows := r.Rows()
	return rows, r.Rest(), r.Err()
}

// decodeInts reads len(v) narrow integers from the head of b and returns
// what is left.
func decodeInts(b []byte, v []int64) ([]byte, error) {
	r := NewReader(b)
	r.Ints(v)
	return r.Rest(), r.Err()
}
