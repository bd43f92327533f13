package exec

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/types"
)

func cellsEqual(a, b Cell) bool {
	same := func(x, y types.Value) bool {
		return x.T == y.T && x.I == y.I && x.S == y.S && x.B == y.B && math.Float64bits(x.F) == math.Float64bits(y.F)
	}
	return a.Count == b.Count && a.SumI == b.SumI && math.Float64bits(a.SumF) == math.Float64bits(b.SumF) &&
		a.Float == b.Float && same(a.Min, b.Min) && same(a.Max, b.Max)
}

// Cells whose Min/Max hold every value type, NULL included, and whose sums
// hold the floats a codec most easily mangles.
func sampleGroups() []Group {
	ext := []types.Value{
		types.NullValue(), types.NewInt(-7), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(math.NaN()),
		types.NewBool(true), types.NewString(""), types.NewString("héllo 世界"),
	}
	var groups []Group
	for i, v := range ext {
		groups = append(groups, Group{
			Keys: []types.Value{types.NewInt(int64(i)), v},
			Cells: []Cell{
				{Count: int64(i), SumI: math.MinInt64 + int64(i), Min: v, Max: ext[(i+1)%len(ext)]},
				{Count: -1, SumF: math.Inf(1), Float: i%2 == 0, Min: types.NewInt(int64(i)), Max: types.NewInt(int64(i) * 2)},
				{}, // COUNT(*) over nothing: every field zero, Min/Max NULL
			},
		})
	}
	return groups
}

func TestGroupsCodecRoundTrip(t *testing.T) {
	for name, groups := range map[string][]Group{
		"nil":      nil,
		"empty":    {},
		"no cells": {{Keys: []types.Value{types.NewInt(1)}, Cells: []Cell{}}, {Keys: []types.Value{types.NewInt(2)}, Cells: []Cell{}}},
		"no keys":  {{Keys: []types.Value{}, Cells: []Cell{{Count: 3}}}},
		"every":    sampleGroups(),
	} {
		t.Run(name, func(t *testing.T) {
			enc, err := AppendGroups([]byte{0xAA}, groups)
			if err != nil {
				t.Fatal(err)
			}
			got, rest, err := DecodeGroups(append(enc[1:], 0xBB))
			if err != nil {
				t.Fatal(err)
			}
			if len(rest) != 1 || rest[0] != 0xBB {
				t.Fatalf("rest = %x", rest)
			}
			if (got == nil) != (groups == nil) || len(got) != len(groups) {
				t.Fatalf("got %d groups (nil=%v), want %d (nil=%v)", len(got), got == nil, len(groups), groups == nil)
			}
			for i := range groups {
				if GroupKey(got[i].Keys) != GroupKey(groups[i].Keys) || len(got[i].Cells) != len(groups[i].Cells) {
					t.Fatalf("group %d: got %+v, want %+v", i, got[i], groups[i])
				}
				for c := range groups[i].Cells {
					if !cellsEqual(got[i].Cells[c], groups[i].Cells[c]) {
						t.Fatalf("group %d cell %d: got %+v, want %+v", i, c, got[i].Cells[c], groups[i].Cells[c])
					}
				}
			}
		})
	}
}

func TestGroupsCodecRejectsRaggedGroups(t *testing.T) {
	_, err := AppendGroups(nil, []Group{
		{Keys: []types.Value{types.NewInt(1)}, Cells: make([]Cell, 1)},
		{Keys: []types.Value{types.NewInt(1), types.NewInt(2)}, Cells: make([]Cell, 1)},
	})
	if err == nil {
		t.Fatal("groups with different key counts must not encode")
	}
}

func sampleResult() *TaskResult {
	r := &TaskResult{
		Rows:   [][]types.Value{{types.NewInt(1), types.NewString("a")}, {types.NullValue(), types.NewString("")}},
		Groups: NewGroups(2),
		Stats:  ScanStats{BlocksTotal: 1, BlocksPruned: 2, BlocksEmpty: 3, IndexHits: 4, IndexMisses: 5, ColumnReads: 6, RowsScanned: 7, RowsSelected: 8, RowsEmitted: 9, ShortCircuits: -10},
	}
	for i := 0; i < 5; i++ {
		g := r.Groups.Get([]types.Value{types.NewString(strings.Repeat("k", i)), types.NewInt(int64(i))})
		g.Cells[0].Update(types.NewInt(int64(i)), false)
		g.Cells[1].Update(types.NewFloat(float64(i)/2), false)
	}
	return r
}

// A result built the way the engine builds one survives the wire DeepEqual,
// map keys included: they are derived from the group keys on decode.
func TestTaskResultGobRoundTrip(t *testing.T) {
	for name, r := range map[string]*TaskResult{
		"zero":          {},
		"rows only":     {Rows: [][]types.Value{{types.NewInt(1)}}},
		"empty rows":    {Rows: [][]types.Value{}},
		"empty groups":  {Groups: NewGroups(3)},
		"nil group map": {Groups: &Groups{NumAggs: 1}},
		"full":          sampleResult(),
	} {
		t.Run(name, func(t *testing.T) {
			b, err := r.GobEncode()
			if err != nil {
				t.Fatal(err)
			}
			var got TaskResult
			if err := got.GobDecode(b); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&got, r) {
				t.Fatalf("got %+v, want %+v", got, r)
			}
			for cut := 0; cut < len(b); cut++ {
				if err := new(TaskResult).GobDecode(b[:cut]); !errors.Is(err, types.ErrCorruptBatch) {
					t.Fatalf("truncation at %d of %d: err = %v, want ErrCorruptBatch", cut, len(b), err)
				}
			}
			if err := new(TaskResult).GobDecode(append(b, 0)); !errors.Is(err, types.ErrCorruptBatch) {
				t.Fatalf("trailing byte: err = %v", err)
			}
		})
	}
}

// AppendGroupKey must produce exactly the historical GroupKey bytes (type
// byte, uvarint length, rendering), including renderings long enough to
// need a multi-byte length.
func TestAppendGroupKeyMatchesRendering(t *testing.T) {
	long := strings.Repeat("x", 200)
	keys := []types.Value{
		types.NullValue(), types.NewInt(-42), types.NewFloat(1.5e300), types.NewBool(true),
		types.NewString("q\"uote"), types.NewString(long), types.NewString(strings.Repeat("é", 20000)),
	}
	var want []byte
	for _, k := range keys {
		s := k.String()
		want = append(want, byte(k.T))
		want = binary.AppendUvarint(want, uint64(len(s)))
		want = append(want, s...)
	}
	if got := GroupKey(keys); got != string(want) {
		t.Fatalf("GroupKey diverged from the rendered form:\n got %q\nwant %q", got[:60], want[:60])
	}
	if got := AppendGroupKey([]byte("prefix"), keys[:2]); !strings.HasPrefix(string(got), "prefix") || string(got[6:]) != GroupKey(keys[:2]) {
		t.Fatalf("AppendGroupKey does not append: %q", got)
	}
}

// orderRows with a limit must return exactly what a stable sort followed by
// truncation returns, for any comparison with ties.
func TestOrderRowsMatchesStableSortThenLimit(t *testing.T) {
	rows := make([][]types.Value, 500)
	for i := range rows {
		rows[i] = []types.Value{types.NewInt(int64((i * 7919) % 13)), types.NewInt(int64(i))}
	}
	cmp := func(i, j int) int { return int(rows[i][0].I - rows[j][0].I) }
	sorted := slices.Clone(rows)
	slices.SortStableFunc(sorted, func(a, b []types.Value) int { return int(a[0].I - b[0].I) })
	for _, limit := range []int64{-1, 0, 1, 2, 13, 14, 100, 499, 500, 501} {
		want := sorted
		if limit >= 0 && limit < int64(len(sorted)) {
			want = sorted[:limit]
		}
		got := orderRows(rows, limit, cmp)
		if len(got) != len(want) {
			t.Fatalf("limit %d: %d rows, want %d", limit, len(got), len(want))
		}
		for i := range want {
			if got[i][1].I != want[i][1].I {
				t.Fatalf("limit %d: row %d is input row %d, want %d", limit, i, got[i][1].I, want[i][1].I)
			}
		}
	}
}

// The slots Finalize resolves once per statement must cover expressions
// nested under arithmetic, HAVING and hidden ORDER BY outputs.
func TestFinalizeResolvesNestedAggregates(t *testing.T) {
	h := newHarness(t)
	res, _ := h.run("SELECT url, SUM(clicks) / COUNT(*) AS avgc, -MAX(clicks) AS neg FROM logs GROUP BY url HAVING COUNT(*) > 0 AND NOT (SUM(clicks) IS NULL) ORDER BY MIN(clicks) + 1, url LIMIT 2")
	if len(res.Rows) == 0 || len(res.Rows) > 2 || len(res.Columns) != 3 {
		t.Fatalf("result = %+v", res)
	}
	for _, row := range res.Rows {
		if row[1].T != types.Float64 || row[2].T != types.Int64 || row[2].I > 0 {
			t.Fatalf("row = %v", row)
		}
	}
}

// FuzzDecodeResult: arbitrary bytes never panic the result decoder, fail
// with the typed error, and never decode into more than the input can pay
// for.
func FuzzDecodeResult(f *testing.F) {
	for _, r := range []*TaskResult{{}, sampleResult(), {Groups: NewGroups(1)}} {
		b, err := r.GobEncode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	g, _ := AppendGroups(nil, sampleGroups())
	f.Add(append(make([]byte, 11), append([]byte{1, 6}, g...)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r TaskResult
		if err := r.GobDecode(data); err != nil {
			if !errors.Is(err, types.ErrCorruptBatch) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		n := len(r.Rows)
		if r.Groups != nil {
			for _, grp := range r.Groups.M {
				n += 1 + len(grp.Keys) + len(grp.Cells)
			}
		}
		if n > 8*len(data)+1 {
			t.Fatalf("%d rows/groups/keys/cells decoded from %d bytes", n, len(data))
		}
	})
}
