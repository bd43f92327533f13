package colstore

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func testSchema() *types.Schema {
	return types.MustSchema(
		types.Field{Name: "id", Type: types.Int64},
		types.Field{Name: "score", Type: types.Float64},
		types.Field{Name: "ok", Type: types.Bool},
		types.Field{Name: "url", Type: types.String},
	)
}

func TestColumnAppendAndValue(t *testing.T) {
	c := NewColumn(types.Int64)
	for i := int64(0); i < 5; i++ {
		if err := c.Append(types.NewInt(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 5 {
		t.Fatalf("Len = %d", c.Len())
	}
	if v := c.Value(3); v.I != 3 {
		t.Errorf("Value(3) = %v", v)
	}
}

func TestColumnNulls(t *testing.T) {
	c := NewColumn(types.String)
	mustAppend(t, c, types.NewString("a"))
	mustAppend(t, c, types.NullValue())
	mustAppend(t, c, types.NewString("b"))
	if !c.IsNull(1) || c.IsNull(0) || c.IsNull(2) {
		t.Error("null tracking wrong")
	}
	if !c.Value(1).IsNull() {
		t.Error("Value(1) should be NULL")
	}
	if c.Value(2).S != "b" {
		t.Errorf("Value(2) = %v", c.Value(2))
	}
}

func mustAppend(t *testing.T, c *Column, v types.Value) {
	t.Helper()
	if err := c.Append(v); err != nil {
		t.Fatal(err)
	}
}

func TestColumnAppendCoercion(t *testing.T) {
	c := NewColumn(types.Float64)
	mustAppend(t, c, types.NewInt(3))
	if c.Value(0).F != 3.0 {
		t.Errorf("coerced value = %v", c.Value(0))
	}
	if err := c.Append(types.NewString("x")); err == nil {
		t.Error("string into float column should fail")
	}
}

func TestComputeStats(t *testing.T) {
	c := NewColumn(types.Int64)
	for _, v := range []int64{5, -2, 9, 3} {
		mustAppend(t, c, types.NewInt(v))
	}
	mustAppend(t, c, types.NullValue())
	st := c.ComputeStats()
	if st.Min.I != -2 || st.Max.I != 9 || st.NullCount != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestComputeStatsAllNull(t *testing.T) {
	c := NewColumn(types.Int64)
	mustAppend(t, c, types.NullValue())
	st := c.ComputeStats()
	if !st.Min.IsNull() || !st.Max.IsNull() || st.NullCount != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBlockAppendRowAndRoundTrip(t *testing.T) {
	schema := testSchema()
	b := NewBlock(schema)
	rows := []types.Row{
		{types.NewInt(1), types.NewFloat(0.5), types.NewBool(true), types.NewString("http://a")},
		{types.NewInt(2), types.NullValue(), types.NewBool(false), types.NewString("http://b")},
		{types.NewInt(3), types.NewFloat(-1), types.NullValue(), types.NullValue()},
	}
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	data, _, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBlock(schema, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows != 3 {
		t.Fatalf("NumRows = %d", got.NumRows)
	}
	for ri, want := range rows {
		gotRow := got.Row(ri)
		for ci := range want {
			if !types.Equal(gotRow[ci], want[ci]) {
				t.Errorf("row %d col %d = %v, want %v", ri, ci, gotRow[ci], want[ci])
			}
		}
	}
}

func TestBlockAppendRowWrongArity(t *testing.T) {
	b := NewBlock(testSchema())
	if err := b.AppendRow(types.Row{types.NewInt(1)}); err == nil {
		t.Error("short row should fail")
	}
}

func TestBlockColumnPruning(t *testing.T) {
	schema := testSchema()
	b := NewBlock(schema)
	for i := 0; i < 10; i++ {
		if err := b.AppendRow(types.Row{
			types.NewInt(int64(i)), types.NewFloat(float64(i)), types.NewBool(i%2 == 0), types.NewString("u"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	data, _, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBlock(schema, data, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Columns[0].Len() != 10 || got.Columns[2].Len() != 10 {
		t.Error("wanted columns not decoded")
	}
	if got.Columns[1].Len() != 0 || got.Columns[3].Len() != 0 {
		t.Error("pruned columns should be empty")
	}
}

func TestRepeatedFieldRoundTrip(t *testing.T) {
	schema := types.MustSchema(
		types.Field{Name: "id", Type: types.Int64},
		types.Field{Name: "tags", Type: types.String, Repeated: true},
	)
	b := NewBlock(schema)
	recs := [][][]types.Value{
		{{types.NewInt(1)}, {types.NewString("a"), types.NewString("b")}},
		{{types.NewInt(2)}, {}},
		{{types.NewInt(3)}, {types.NewString("c")}},
	}
	for _, rec := range recs {
		if err := b.AppendRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	data, _, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBlock(schema, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows != 3 {
		t.Fatalf("NumRows = %d", got.NumRows)
	}
	if vs := got.RepeatedValues(1, 0); len(vs) != 2 || vs[0].S != "a" || vs[1].S != "b" {
		t.Errorf("record 0 tags = %v", vs)
	}
	if vs := got.RepeatedValues(1, 1); len(vs) != 0 {
		t.Errorf("record 1 tags = %v", vs)
	}
	if vs := got.RepeatedValues(1, 2); len(vs) != 1 || vs[0].S != "c" {
		t.Errorf("record 2 tags = %v", vs)
	}
	// Row() yields first element or NULL for repeated.
	if r := got.Row(1); !r[1].IsNull() {
		t.Errorf("empty repeated should surface as NULL, got %v", r[1])
	}
}

func TestScalarFieldArityError(t *testing.T) {
	b := NewBlock(testSchema())
	rec := [][]types.Value{
		{types.NewInt(1), types.NewInt(2)}, // two values in scalar field
		{types.NewFloat(0)}, {types.NewBool(true)}, {types.NewString("")},
	}
	if err := b.AppendRecord(rec); err == nil {
		t.Error("multi-valued scalar should fail")
	}
}

func TestFileWriterReaderRoundTrip(t *testing.T) {
	schema := testSchema()
	w := NewWriter(schema, 4)
	const n = 11
	for i := 0; i < n; i++ {
		if err := w.Append(types.Row{
			types.NewInt(int64(i)), types.NewFloat(float64(i) / 2), types.NewBool(i%3 == 0), types.NewString("url"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	meta, err := ReadMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Blocks) != 3 { // 4+4+3
		t.Fatalf("blocks = %d", len(meta.Blocks))
	}
	if meta.Schema.String() != schema.String() {
		t.Errorf("schema round trip = %q", meta.Schema.String())
	}
	total := 0
	for bi := range meta.Blocks {
		blk, err := ReadBlock(data, meta, bi, nil)
		if err != nil {
			t.Fatal(err)
		}
		total += blk.NumRows
		for r := 0; r < blk.NumRows; r++ {
			row := blk.Row(r)
			if int(row[0].I) != total-blk.NumRows+r {
				t.Errorf("block %d row %d id = %v", bi, r, row[0])
			}
		}
	}
	if total != n {
		t.Errorf("total rows = %d, want %d", total, n)
	}
}

func TestFileFooterStats(t *testing.T) {
	schema := testSchema()
	w := NewWriter(schema, 100)
	for i := 0; i < 10; i++ {
		if err := w.Append(types.Row{
			types.NewInt(int64(i * 10)), types.NewFloat(1), types.NewBool(true), types.NewString("u"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	meta, err := ReadMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	st := meta.Blocks[0].Stats.Columns[0]
	if st.Min.I != 0 || st.Max.I != 90 {
		t.Errorf("id stats = %+v", st)
	}
}

func TestReadMetaErrors(t *testing.T) {
	if _, err := ReadMeta(nil); err == nil {
		t.Error("empty file should fail")
	}
	if _, err := ReadMeta([]byte("not a feisu file, definitely not....")); err == nil {
		t.Error("bad magic should fail")
	}
	w := NewWriter(testSchema(), 10)
	_ = w.Append(types.Row{types.NewInt(1), types.NewFloat(1), types.NewBool(true), types.NewString("u")})
	data, _ := w.Finish()
	corrupt := append([]byte{}, data...)
	corrupt[len(corrupt)-1] ^= 0xff
	if _, err := ReadMeta(corrupt); err == nil {
		t.Error("bad tail magic should fail")
	}
}

func TestReadBlockOutOfRange(t *testing.T) {
	w := NewWriter(testSchema(), 10)
	_ = w.Append(types.Row{types.NewInt(1), types.NewFloat(1), types.NewBool(true), types.NewString("u")})
	data, _ := w.Finish()
	meta, err := ReadMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBlock(data, meta, 5, nil); err == nil {
		t.Error("out-of-range ordinal should fail")
	}
	if _, err := ReadBlock(data, meta, -1, nil); err == nil {
		t.Error("negative ordinal should fail")
	}
}

func TestEmptyFile(t *testing.T) {
	w := NewWriter(testSchema(), 10)
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	meta, err := ReadMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Blocks) != 0 {
		t.Errorf("blocks = %d", len(meta.Blocks))
	}
}

func TestFlattenJSONScalar(t *testing.T) {
	schema := types.MustSchema(
		types.Field{Name: "id", Type: types.Int64},
		types.Field{Name: "user.name", Type: types.String},
		types.Field{Name: "user.vip", Type: types.Bool},
		types.Field{Name: "score", Type: types.Float64},
	)
	rec, err := decodeJSON(schema, []byte(`{"id": 7, "user": {"name": "li", "vip": true}, "score": 2.5}`))
	if err != nil {
		t.Fatal(err)
	}
	if rec[0][0].I != 7 || rec[1][0].S != "li" || !rec[2][0].B || rec[3][0].F != 2.5 {
		t.Errorf("rec = %v", rec)
	}
}

func TestFlattenJSONMissingIsNull(t *testing.T) {
	schema := types.MustSchema(
		types.Field{Name: "id", Type: types.Int64},
		types.Field{Name: "absent.deep", Type: types.String},
	)
	rec, err := decodeJSON(schema, []byte(`{"id": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	if !rec[1][0].IsNull() {
		t.Errorf("missing path should be NULL, got %v", rec[1])
	}
}

func TestFlattenJSONRepeated(t *testing.T) {
	schema := types.MustSchema(
		types.Field{Name: "id", Type: types.Int64},
		types.Field{Name: "clicks.pos", Type: types.Int64, Repeated: true},
	)
	rec, err := decodeJSON(schema, []byte(`{"id": 1, "clicks": [{"pos": 3}, {"pos": 8}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec[1]) != 2 || rec[1][0].I != 3 || rec[1][1].I != 8 {
		t.Errorf("clicks.pos = %v", rec[1])
	}
}

func TestFlattenJSONErrors(t *testing.T) {
	schema := types.MustSchema(types.Field{Name: "id", Type: types.Int64})
	if _, err := decodeJSON(schema, []byte(`{bad`)); err == nil {
		t.Error("bad json should fail")
	}
	schema2 := types.MustSchema(types.Field{Name: "a", Type: types.Int64})
	if _, err := decodeJSON(schema2, []byte(`{"a": [1,2]}`)); err == nil {
		t.Error("array into scalar should fail")
	}
	schema3 := types.MustSchema(types.Field{Name: "a.b", Type: types.Int64})
	if _, err := decodeJSON(schema3, []byte(`{"a": 5}`)); err == nil {
		t.Error("scalar where object expected should fail")
	}
	schema4 := types.MustSchema(types.Field{Name: "a", Type: types.Bool})
	if _, err := decodeJSON(schema4, []byte(`{"a": "str"}`)); err == nil {
		t.Error("string into bool should fail")
	}
}

func TestFlattenIntoBlockEndToEnd(t *testing.T) {
	schema := types.MustSchema(
		types.Field{Name: "id", Type: types.Int64},
		types.Field{Name: "tags", Type: types.String, Repeated: true},
	)
	b := NewBlock(schema)
	dec := NewJSONDecoder(schema)
	docs := []string{
		`{"id": 1, "tags": ["x", "y"]}`,
		`{"id": 2}`,
	}
	for _, d := range docs {
		rec, err := dec.Decode([]byte(d))
		if err != nil {
			t.Fatal(err)
		}
		if err := b.AppendRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if vs := b.RepeatedValues(1, 0); len(vs) != 2 || vs[0].S != "x" || vs[1].S != "y" {
		t.Errorf("tags of record 0 = %v", vs)
	}
	if vs := b.RepeatedValues(1, 1); len(vs) != 0 {
		t.Errorf("tags of record 1 = %v", vs)
	}
}

func TestBlockRoundTripProperty(t *testing.T) {
	schema := types.MustSchema(
		types.Field{Name: "a", Type: types.Int64},
		types.Field{Name: "b", Type: types.String},
	)
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%64 + 1
		rng := rand.New(rand.NewSource(seed))
		b := NewBlock(schema)
		rows := make([]types.Row, n)
		for i := range rows {
			var a, s types.Value
			if rng.Intn(5) == 0 {
				a = types.NullValue()
			} else {
				a = types.NewInt(rng.Int63n(1000) - 500)
			}
			if rng.Intn(5) == 0 {
				s = types.NullValue()
			} else {
				s = types.NewString(string(rune('a' + rng.Intn(26))))
			}
			rows[i] = types.Row{a, s}
			if err := b.AppendRow(rows[i]); err != nil {
				return false
			}
		}
		data, _, err := b.Marshal()
		if err != nil {
			return false
		}
		got, err := UnmarshalBlock(schema, data, nil)
		if err != nil || got.NumRows != n {
			return false
		}
		for i := range rows {
			gr := got.Row(i)
			if !types.Equal(gr[0], rows[i][0]) || !types.Equal(gr[1], rows[i][1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStatsBloomMembership(t *testing.T) {
	c := NewColumn(types.Int64)
	for _, v := range []int64{2, 4, 6, 8} {
		mustAppend(t, c, types.NewInt(v))
	}
	st := c.ComputeStats()
	if st.Bloom == nil {
		t.Fatal("bloom missing")
	}
	for _, v := range []int64{2, 4, 6, 8} {
		if !st.Bloom.MayContain(BloomKey(types.NewInt(v))) {
			t.Errorf("bloom lost %d", v)
		}
	}
	// 5 is inside [2,8] but absent; the bloom can prove it (w.h.p.).
	if st.Bloom.MayContain(BloomKey(types.NewInt(5))) {
		t.Log("false positive on 5 (allowed, unlikely)")
	}
	// Cross-type equality shares keys.
	if !st.Bloom.MayContain(BloomKey(types.NewFloat(4.0))) {
		t.Error("float 4.0 should share the key of int 4")
	}
}

// Numbers equal under types.Compare share a BloomKey whatever their types,
// so a block's bloom never prunes a block holding a match: ±0, the
// neighbours of 2^53 (where int64s stop being exact float64s), the int64
// extremes and any int64 beside its float64.
func TestBloomKeyFollowsCompare(t *testing.T) {
	nums := []types.Value{
		types.NewInt(0), types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)),
		types.NewInt(1_000_000), types.NewFloat(1e6), types.NewFloat(0.5),
		types.NewInt(math.MinInt64), types.NewFloat(math.MinInt64), types.NewInt(math.MinInt64 + 1),
		types.NewInt(math.MaxInt64), types.NewFloat(math.MaxInt64), types.NewInt(math.MaxInt64 - 1),
	}
	for d := int64(-2); d <= 2; d++ {
		for _, base := range []int64{1 << 53, -1 << 53} {
			nums = append(nums, types.NewInt(base+d), types.NewFloat(float64(base+d)), types.NewFloat(float64(base)+float64(d)))
		}
	}
	sameKey := func(a, b types.Value) bool {
		cmp, err := types.Compare(a, b)
		return err != nil || cmp != 0 || bytes.Equal(BloomKey(a), BloomKey(b))
	}
	for _, a := range nums {
		for _, b := range nums {
			if !sameKey(a, b) {
				t.Errorf("%v and %v compare equal but have bloom keys %x and %x", a, b, BloomKey(a), BloomKey(b))
			}
		}
	}
	if err := quick.Check(func(i int64) bool { return sameKey(types.NewInt(i), types.NewFloat(float64(i))) }, nil); err != nil {
		t.Error(err)
	}
}

func TestFooterBloomRoundTrip(t *testing.T) {
	schema := types.MustSchema(types.Field{Name: "id", Type: types.Int64})
	w := NewWriter(schema, 100)
	for i := 0; i < 10; i++ {
		if err := w.Append(types.Row{types.NewInt(int64(i * 2))}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	meta, err := ReadMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	bl := meta.Blocks[0].Stats.Columns[0].Bloom
	if bl == nil {
		t.Fatal("footer lost the bloom")
	}
	if !bl.MayContain(BloomKey(types.NewInt(4))) {
		t.Error("bloom lost 4 through the footer")
	}
}
