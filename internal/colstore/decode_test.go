package colstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/bloom"
	"repro/internal/encoding"
	"repro/internal/types"
)

// allTypesFile writes a partition file with a column of every type, NULLs in
// each, and repeated fields, over several blocks.
func allTypesFile(tb testing.TB) ([]byte, *FileMeta) {
	tb.Helper()
	schema := types.MustSchema(
		types.Field{Name: "i", Type: types.Int64},
		types.Field{Name: "f", Type: types.Float64},
		types.Field{Name: "b", Type: types.Bool},
		types.Field{Name: "s", Type: types.String},
		types.Field{Name: "tag", Type: types.String},
		types.Field{Name: "pos", Type: types.Int64, Repeated: true},
		types.Field{Name: "names", Type: types.String, Repeated: true},
	)
	w := NewWriter(schema, 16)
	for r := 0; r < 40; r++ {
		null := func(v types.Value) []types.Value {
			if r%7 == 3 {
				return []types.Value{types.NullValue()}
			}
			return []types.Value{v}
		}
		var pos, names []types.Value
		for k := 0; k < r%4; k++ {
			pos = append(pos, types.NewInt(int64(r*k-5)))
			names = append(names, types.NewString(fmt.Sprintf("n%d", k)))
		}
		rec := [][]types.Value{
			null(types.NewInt(int64(r*r) - 300)),
			null(types.NewFloat(float64(r) / 3)),
			null(types.NewBool(r%3 == 0)),
			null(types.NewString(fmt.Sprintf("row %d", r))),
			{types.NewString([]string{"web", "maps", "news"}[r%3])},
			pos,
			names,
		}
		if err := w.AppendRecord(rec); err != nil {
			tb.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	meta, err := ReadMeta(data)
	if err != nil {
		tb.Fatal(err)
	}
	return data, meta
}

// Every disk decoder checks a count against the bytes present before it
// allocates for it: a hostile count is a typed error that costs a few
// allocations, never an allocation of the count's size.
func TestDiskHostileCountsDoNotAllocate(t *testing.T) {
	schema := types.MustSchema(types.Field{Name: "x", Type: types.Int64})
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	ints := func(b []byte) error { _, err := encoding.DecodeInt64s(b); return err }
	strs := func(b []byte) error { _, err := encoding.DecodeStrings(b); return err }
	block := func(b []byte) error { _, err := UnmarshalBlock(schema, b, nil); return err }
	footer := func(b []byte) error { _, err := ParseFooter(b, crc32.ChecksumIEEE(b)); return err }
	for _, count := range []uint64{1 << 40, 1 << 61, 1 << 63} {
		c := uv(count)
		for name, tc := range map[string]struct {
			decode func([]byte) error
			in     []byte
		}{
			"int plain":        {ints, cat([]byte{1}, c, []byte{7})},
			"int delta":        {ints, cat([]byte{2}, c, []byte{7})},
			"int run-length":   {ints, cat([]byte{3}, c, uv(1), []byte{7})},
			"float":            {func(b []byte) error { _, err := encoding.DecodeFloat64s(b); return err }, cat([]byte{4}, c, []byte{7})},
			"bool":             {func(b []byte) error { _, err := encoding.DecodeBools(b); return err }, cat([]byte{5}, c, []byte{7})},
			"string plain":     {strs, cat([]byte{6}, c, []byte{1, 'a'})},
			"string dict":      {strs, cat([]byte{7}, c, uv(1), []byte{1, 'a', 0})},
			"string dict size": {strs, cat([]byte{7, 1}, c, []byte{1, 'a', 0})},
			"bitmap":           {func(b []byte) error { _, err := bitmap.Unmarshal(b); return err }, cat(c, []byte{7})},
			"bloom":            {func(b []byte) error { _, err := bloom.Unmarshal(b); return err }, cat(c, uv(3), []byte{7})},
			"block columns":    {block, cat(uv(1), c, []byte{7})},
			"block directory":  {block, cat(uv(1), uv(1), c, []byte{7})},
			"footer fields":    {footer, cat(c, []byte{1, 'x', 1, 0})},
			"footer blocks":    {footer, cat(types.AppendSchema(nil, types.MustSchema()), c, []byte{7})},
		} {
			allocs := testing.AllocsPerRun(10, func() {
				if err := tc.decode(tc.in); !errors.Is(err, types.ErrCorrupt) {
					t.Errorf("%s, count %d: err = %v, want ErrCorrupt", name, count, err)
				}
			})
			if allocs > 4 {
				t.Errorf("%s, count %d: %v allocations before rejecting the count", name, count, allocs)
			}
		}
	}
}

// FuzzParseFooter: arbitrary footer bytes with a matching CRC either parse
// or fail with types.ErrCorrupt — never a panic — and what parses re-encodes
// to exactly the bytes it came from. With a wrong CRC, they are ErrChecksum.
func FuzzParseFooter(f *testing.F) {
	data, _ := allTypesFile(f)
	n, _, err := ParseFooterTail(data[len(data)-FooterTailLen:])
	if err != nil {
		f.Fatal(err)
	}
	footer := data[len(data)-FooterTailLen-n : len(data)-FooterTailLen]
	f.Add(footer)
	f.Add(footer[:n/2])
	f.Add([]byte{})
	f.Add(types.AppendSchema(nil, types.MustSchema()))
	f.Fuzz(func(t *testing.T, footer []byte) {
		crc := crc32.ChecksumIEEE(footer)
		if _, err := ParseFooter(footer, crc^1); !errors.Is(err, ErrChecksum) {
			t.Fatalf("wrong CRC: err = %v, want ErrChecksum", err)
		}
		meta, err := ParseFooter(footer, crc)
		if err != nil {
			if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if again := appendFooter(nil, meta); !bytes.Equal(again, footer) {
			t.Fatalf("footer re-encodes differently:\n got %x\nwant %x", again, footer)
		}
	})
}

// FuzzDecodeColumn: an arbitrary column payload of any type, against any row
// count, either decodes or fails with types.ErrCorrupt — never a panic — and
// every record r < rows of what decodes can be read. The Writer's payloads
// (the seeds) re-encode to exactly their bytes; any other payload that
// decodes re-encodes to a payload that decodes and re-encodes to itself (the
// encoder picks a chunk's encoding by size, so a valid chunk in another
// encoding comes back in the encoder's).
func FuzzDecodeColumn(f *testing.F) {
	data, meta := allTypesFile(f)
	for _, bm := range meta.Blocks {
		for c, e := range bm.ColExtents {
			payload := data[e.Off : e.Off+e.Len]
			col, err := DecodeColumn(meta.Schema.Fields[c].Type, payload, bm.Stats.NumRows)
			if err != nil {
				f.Fatal(err)
			}
			if again, err := appendColumn(nil, col); err != nil || !bytes.Equal(again, payload) {
				f.Fatalf("block %d column %d re-encodes differently (%v)", bm.Ordinal, c, err)
			}
			f.Add(byte(meta.Schema.Fields[c].Type), uint16(bm.Stats.NumRows), payload)
		}
	}
	f.Fuzz(func(t *testing.T, typ byte, rows16 uint16, payload []byte) {
		ty, rows := types.Type(1+typ%4), int(rows16)
		col, err := DecodeColumn(ty, payload, rows)
		if err != nil {
			if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		for r := 0; r < rows; r++ {
			if col.Offsets == nil {
				col.Value(r)
				continue
			}
			for i := col.Offsets[r]; i < col.Offsets[r+1]; i++ {
				col.Value(int(i))
			}
		}
		enc, err := appendColumn(nil, col)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeColumn(ty, enc, rows)
		if err != nil {
			t.Fatalf("re-encoded column does not decode: %v", err)
		}
		if again, _ := appendColumn(nil, back); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not a fixed point:\n got %x\nwant %x", again, enc)
		}
	})
}

// A column whose bytes pass their CRC but do not fit the block's row count —
// too few or too many values, or a repeated column's offsets that are short,
// do not start at 0, decrease, miss the value count or pass int32 — is a typed
// error, never a column a reader indexes past the end of.
func TestDecodeColumnChecksRowCount(t *testing.T) {
	// payload is an int column of n values, repeated when offs is non-nil.
	payload := func(n int, offs ...int64) []byte {
		p := types.AppendBool(types.AppendBool(nil, false), offs != nil)
		if offs != nil {
			enc := encoding.EncodeInt64s(offs)
			p = append(binary.AppendUvarint(p, uint64(len(enc))), enc...)
		}
		return append(p, encoding.EncodeInt64s(make([]int64, n))...)
	}
	for name, tc := range map[string]struct {
		payload []byte
		rows    int
		ok      bool
	}{
		"scalar":              {payload(4), 4, true},
		"empty":               {payload(0), 0, true},
		"repeated":            {payload(3, 0, 0, 3, 3), 3, true},
		"short":               {payload(4), 8, false},
		"long":                {payload(8), 4, false},
		"negative rows":       {payload(0), -1, false},
		"offsets short":       {payload(3, 0, 3), 2, false},
		"offsets from 1":      {payload(3, 1, 2, 3), 2, false},
		"offsets decrease":    {payload(3, 0, 2, 1, 3), 3, false},
		"offsets miss values": {payload(3, 0, 1, 2), 2, false},
		"offsets past values": {payload(3, 0, 1, 4), 2, false},
		"offsets past int32":  {payload(3, 0, 1<<32+1, 3), 2, false}, // int32(1<<32+1) == 1
	} {
		_, err := DecodeColumn(types.Int64, tc.payload, tc.rows)
		if tc.ok && err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !tc.ok && !errors.Is(err, types.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}
