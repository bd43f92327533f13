package colstore

import (
	"fmt"
	"testing"

	"repro/internal/types"
)

// decodeJSON flattens one record with a fresh decoder.
func decodeJSON(schema *types.Schema, doc []byte) ([][]types.Value, error) {
	return NewJSONDecoder(schema).Decode(doc)
}

func TestJSONBigintExact(t *testing.T) {
	schema := types.MustSchema(
		types.Field{Name: "a", Type: types.Int64},
		types.Field{Name: "f", Type: types.Float64},
	)
	for _, c := range []struct {
		doc  string
		want int64
	}{
		{`{"a": 9007199254740993}`, 9007199254740993},
		{`{"a": 9223372036854775807}`, 1<<63 - 1},
		{`{"a": -9223372036854775808}`, -1 << 63},
		{`{"a": -0}`, 0},
		{`{"a": 1.5}`, 1},
		{`{"a": -2.7}`, -2},
		{`{"a": 1e3}`, 1000},
		{`{"a": 25E-1}`, 2},
	} {
		rec, err := decodeJSON(schema, []byte(c.doc))
		if err != nil || rec[0][0] != types.NewInt(c.want) {
			t.Errorf("%s: got %v, %v; want %d", c.doc, rec, err, c.want)
		}
	}
	for _, doc := range []string{
		`{"a": 9223372036854775808}`,
		`{"a": -9223372036854775809}`,
		`{"a": 100000000000000000000000}`,
		`{"a": 1e400}`,
		`{"f": 1e400}`,
	} {
		if rec, err := decodeJSON(schema, []byte(doc)); err == nil {
			t.Errorf("%s: accepted as %v", doc, rec)
		}
	}
	// A FLOAT column takes any number, integer literals included.
	if rec, err := decodeJSON(schema, []byte(`{"f": 9007199254740993}`)); err != nil || rec[1][0].F != 9007199254740992 {
		t.Errorf("float column: %v, %v", rec, err)
	}
}

func TestJSONDuplicateKeyKeepsLast(t *testing.T) {
	schema := types.MustSchema(
		types.Field{Name: "a", Type: types.Int64},
		types.Field{Name: "u.x", Type: types.Int64},
		types.Field{Name: "t", Type: types.String, Repeated: true},
		types.Field{Name: "c.p", Type: types.Int64, Repeated: true},
	)
	for _, c := range []struct{ doc, want string }{
		{`{"a":1,"a":2}`, "[[2] [NULL] [] []]"},
		{`{"a":"bad","a":3}`, "[[3] [NULL] [] []]"},
		{`{"u":{"x":"bad"},"t":["k"],"u":{"x":5}}`, `[[NULL] [5] ["k"] []]`},
		{`{"u":{"x":1,"x":6}}`, "[[NULL] [6] [] []]"},
		{`{"t":["a","b"],"a":1,"t":["c"]}`, `[[1] [NULL] ["c"] []]`},
		{`{"c":[{"p":1,"p":2},{"p":3}]}`, "[[NULL] [NULL] [] [2 3]]"},
		{`{"c":[{"p":1}],"c":{"p":7}}`, "[[NULL] [NULL] [] [7]]"},
	} {
		rec, err := decodeJSON(schema, []byte(c.doc))
		if got := fmt.Sprint(rec); err != nil || got != c.want {
			t.Errorf("%s: got %s, %v; want %s", c.doc, got, err, c.want)
		}
	}
	if _, err := decodeJSON(schema, []byte(`{"a":1,"a":"bad"}`)); err == nil {
		t.Error("the last occurrence's error should stand")
	}
}

func TestJSONSkipsKeysOutsideSchema(t *testing.T) {
	schema := types.MustSchema(
		types.Field{Name: "a", Type: types.Int64},
		types.Field{Name: "s", Type: types.String},
	)
	doc := `{"zz":{"a":"x","deep":[1,[2,{"}":"]"}],null]},"a":1,"q":"\"}","n":1e400,"s":"a\nbé😀"}`
	rec, err := decodeJSON(schema, []byte(doc))
	if err != nil || rec[0][0].I != 1 || rec[1][0].S != "a\nbé😀" {
		t.Errorf("got %v, %v", rec, err)
	}
	// Invalid UTF-8 becomes U+FFFD, as encoding/json makes it.
	rec, err = decodeJSON(schema, []byte("{\"s\":\"x\xffy\"}"))
	if err != nil || rec[1][0].S != "x�y" {
		t.Errorf("invalid UTF-8: got %q, %v", rec, err)
	}
}

// TestAppendRecordAllOrNothing: a record that fails on a later field leaves
// no trace in the block, so the block still serializes and reads back.
func TestAppendRecordAllOrNothing(t *testing.T) {
	schema := types.MustSchema(
		types.Field{Name: "a", Type: types.Int64},
		types.Field{Name: "t", Type: types.String, Repeated: true},
		types.Field{Name: "b", Type: types.Bool},
	)
	b := NewBlock(schema)
	good := func(a int64, tags ...string) [][]types.Value {
		rec := [][]types.Value{{types.NewInt(a)}, nil, {types.NewBool(true)}}
		for _, s := range tags {
			rec[1] = append(rec[1], types.NewString(s))
		}
		return rec
	}
	if err := b.AppendRecord(good(1, "x")); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][][]types.Value{
		{{types.NewInt(2)}, nil, {types.NewInt(2)}},
		{{types.NullValue()}, {types.NullValue(), types.NewString("y")}, {types.NewString("no")}},
		{{types.NewInt(3)}, {types.NewString("z"), types.NewBool(false)}, {types.NewBool(true)}},
		{{types.NewInt(4)}, nil, nil},
	} {
		if err := b.AppendRecord(bad); err == nil {
			t.Fatalf("record %v accepted", bad)
		}
	}
	if err := b.AppendRecord(good(5, "p", "q")); err != nil {
		t.Fatal(err)
	}
	data, _, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalBlock(schema, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(back.Row(0), back.Row(1), back.RepeatedValues(1, 1)); back.NumRows != 2 || got != `[1 "x" true] [5 "p" true] ["p" "q"]` {
		t.Errorf("rows = %d: %s", back.NumRows, got)
	}
	if back.Columns[0].Nulls != nil || back.Columns[1].Nulls != nil {
		t.Error("a rejected NULL left its mark")
	}
}

// fuzzSchema has nested, repeated and overlapping leaf/interior fields.
var fuzzSchema = types.MustSchema(
	types.Field{Name: "id", Type: types.Int64},
	types.Field{Name: "x", Type: types.Int64, Repeated: true},
	types.Field{Name: "x.y", Type: types.Int64, Repeated: true},
	types.Field{Name: "u.name", Type: types.String},
	types.Field{Name: "u.vip", Type: types.Bool},
	types.Field{Name: "u.geo.lat", Type: types.Float64},
	types.Field{Name: "c.pos", Type: types.Int64, Repeated: true},
	types.Field{Name: "c.tag", Type: types.String, Repeated: true},
	types.Field{Name: "f", Type: types.Float64, Repeated: true},
	types.Field{Name: "b", Type: types.Bool, Repeated: true},
	types.Field{Name: "s", Type: types.String},
)

// FuzzFlattenJSON holds JSONDecoder to the reference map-based flattener:
// the same records accepted, the same values for each. The decoder is
// reused across records, as the converter reuses it.
func FuzzFlattenJSON(f *testing.F) {
	for _, doc := range []string{
		`{"id": 7, "u": {"name": "li", "vip": true, "geo": {"lat": 2.5}}, "s": "x"}`,
		`{"id": 1, "c": [{"pos": 3, "tag": "a"}, {"pos": 8}, null, [{"tag": "b"}]]}`,
		`{"x": [1, 2, [3]], "f": [1, 2.5, -1e-3, 1E+2], "b": [true, false, null]}`,
		`{"x": {"y": [1, 2]}}`, `{"x": 1, "x": {"y": 2}}`, `{"x": {"y": 1}, "x": 2}`,
		`{"id": 9007199254740993, "id": "dup"}`, `{"id": 9223372036854775808}`,
		`{"id": 1.9e2}`, `{"f": 1e400}`, `{"zz": 1e400, "id": 3}`,
		`{"u": {"name": "aé\"\\", "name": "b"}, "s": "esc"}`,
		"{\"s\": \"\xff\xfe\"}", `[{"id": 1}, {"id": 2}]`, `[{"c": {"pos": 1}}, {"c": [{"pos": 2}]}]`,
		`null`, `5`, `"str"`, `{}`, `[]`, `{"u": 5}`, `{"u": [5]}`, `{"u": [], "c": [[]]}`,
		`{"id": true}`, `{"s": 1}`, `{"b": "t"}`, `{"u": {"geo": {"lat": "x"}}}`,
		` { "id" : 1 , "zz" : { "a" : [ 1 , { } ] } } `, `{"id": 1} x`, `{"id": }`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		want, wantErr := flattenJSON(fuzzSchema, doc)
		dec := NewJSONDecoder(fuzzSchema)
		if _, err := dec.Decode([]byte(`{"id": 0, "c": [{"pos": 1, "tag": "warm"}], "s": "up", "x": null}`)); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			got, err := dec.Decode(doc)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%q pass %d: err = %v, reference err = %v", doc, pass, err, wantErr)
			}
			if err != nil {
				continue
			}
			for i, fl := range fuzzSchema.Fields {
				if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) || !sameValues(got[i], want[i]) {
					t.Fatalf("%q pass %d: field %s = %v, reference %v", doc, pass, fl.Name, got[i], want[i])
				}
			}
			if err := NewBlock(fuzzSchema).AppendRecord(got); err != nil {
				t.Fatalf("%q: decoded record does not append: %v", doc, err)
			}
		}
	})
}

func sameValues(a, b []types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
