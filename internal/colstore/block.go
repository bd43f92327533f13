package colstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bitmap"
	"repro/internal/encoding"
	"repro/internal/types"
)

// Block is one row group: a fixed set of records stored column-wise.
// NumRows counts *records*; repeated columns may hold more flattened values
// than NumRows.
type Block struct {
	Schema  *types.Schema
	NumRows int
	Columns []*Column
}

// NewBlock returns an empty block for the schema.
func NewBlock(schema *types.Schema) *Block {
	cols := make([]*Column, schema.Len())
	for i, f := range schema.Fields {
		cols[i] = NewColumn(f.Type)
		if f.Repeated {
			cols[i].Offsets = []int32{0}
		}
	}
	return &Block{Schema: schema, Columns: cols}
}

// AppendRow adds one record. For repeated fields the row carries a single
// types.Value per flattened element via AppendRepeated; AppendRow expects
// scalar fields only and appends one NULL element slot to repeated fields,
// so use AppendRecord for mixed schemas.
func (b *Block) AppendRow(row types.Row) error {
	if len(row) != b.Schema.Len() {
		return fmt.Errorf("colstore: row has %d values, schema has %d", len(row), b.Schema.Len())
	}
	rec := make([][]types.Value, len(row))
	for i, v := range row {
		if b.Schema.Fields[i].Repeated {
			if v.IsNull() {
				rec[i] = nil
			} else {
				rec[i] = []types.Value{v}
			}
		} else {
			rec[i] = []types.Value{v}
		}
	}
	return b.AppendRecord(rec)
}

// AppendRecord adds one record where each field carries zero or more values.
// Scalar fields must carry exactly one value; repeated fields may carry any
// number (including zero).
func (b *Block) AppendRecord(rec [][]types.Value) error {
	if len(rec) != b.Schema.Len() {
		return fmt.Errorf("colstore: record has %d fields, schema has %d", len(rec), b.Schema.Len())
	}
	for i, vals := range rec {
		f := b.Schema.Fields[i]
		col := b.Columns[i]
		if !f.Repeated {
			if len(vals) != 1 {
				return fmt.Errorf("colstore: scalar field %q got %d values", f.Name, len(vals))
			}
			if err := col.Append(vals[0]); err != nil {
				return err
			}
			continue
		}
		for _, v := range vals {
			if err := col.Append(v); err != nil {
				return err
			}
		}
		col.Offsets = append(col.Offsets, int32(col.Len()))
	}
	b.NumRows++
	return nil
}

// Row materialises record r as a row. Repeated fields yield their first
// element (or NULL when empty); use RepeatedValues for the full list.
func (b *Block) Row(r int) types.Row {
	row := make(types.Row, len(b.Columns))
	for i, col := range b.Columns {
		if col.Offsets != nil {
			start, end := col.Offsets[r], col.Offsets[r+1]
			if start == end {
				row[i] = types.NullValue()
			} else {
				row[i] = col.Value(int(start))
			}
			continue
		}
		row[i] = col.Value(r)
	}
	return row
}

// RepeatedValues returns all flattened values of repeated column ci for
// record r.
func (b *Block) RepeatedValues(ci, r int) []types.Value {
	col := b.Columns[ci]
	if col.Offsets == nil {
		return []types.Value{col.Value(r)}
	}
	start, end := col.Offsets[r], col.Offsets[r+1]
	out := make([]types.Value, 0, end-start)
	for i := start; i < end; i++ {
		out = append(out, col.Value(int(i)))
	}
	return out
}

// finish trims the lazily grown bookkeeping before the block is sealed.
func (b *Block) finish() {
	for _, col := range b.Columns {
		col.finishNulls(col.Len())
	}
}

// BlockStats is the per-column statistics of a sealed block, stored in the
// file footer for block pruning.
type BlockStats struct {
	NumRows int
	Columns []Stats
}

// ComputeStats builds footer statistics for the block.
func (b *Block) ComputeStats() BlockStats {
	st := BlockStats{NumRows: b.NumRows, Columns: make([]Stats, len(b.Columns))}
	for i, col := range b.Columns {
		st.Columns[i] = col.ComputeStats()
	}
	return st
}

// --- block (de)serialization ---
//
// Layout:
//   uvarint numRows
//   uvarint numCols
//   per column directory entry: uvarint payloadSize
//   per column payload:
//     byte hasNulls; if 1: uvarint len + null bitmap (bitmap.Marshal)
//     byte hasOffsets; if 1: encoded int64 offsets (encoding.EncodeInt64s)
//     encoded values (encoding.Encode*)

// ColExtent locates one column's payload inside a serialized block,
// relative to the block start. The file footer records absolute extents so
// leaves can read exactly the columns a query needs — the I/O saving that
// SmartIndex and column pruning deliver in the paper.
type ColExtent struct {
	Off int64
	Len int64
	// CRC is the IEEE CRC-32 of the payload bytes, letting range readers
	// detect corrupt returns from a faulty storage tier before decoding.
	CRC uint32
}

// Marshal serializes the block. It returns the bytes together with the
// per-column extents inside them.
func (b *Block) Marshal() ([]byte, []ColExtent, error) {
	b.finish()
	payloads := make([][]byte, len(b.Columns))
	for i, col := range b.Columns {
		var err error
		if payloads[i], err = appendColumn(nil, col); err != nil {
			return nil, nil, err
		}
	}
	out := binary.AppendUvarint(nil, uint64(b.NumRows))
	out = binary.AppendUvarint(out, uint64(len(b.Columns)))
	for _, p := range payloads {
		out = binary.AppendUvarint(out, uint64(len(p)))
	}
	extents := make([]ColExtent, len(payloads))
	for i, p := range payloads {
		extents[i] = ColExtent{Off: int64(len(out)), Len: int64(len(p))}
		out = append(out, p...)
	}
	return out, extents, nil
}

// appendColumn appends one column's payload.
func appendColumn(p []byte, col *Column) ([]byte, error) {
	p = types.AppendBool(p, col.Nulls != nil)
	if col.Nulls != nil {
		nb := col.Nulls.Marshal()
		p = append(binary.AppendUvarint(p, uint64(len(nb))), nb...)
	}
	p = types.AppendBool(p, col.Offsets != nil)
	if col.Offsets != nil {
		offs := make([]int64, len(col.Offsets))
		for j, o := range col.Offsets {
			offs[j] = int64(o)
		}
		enc := encoding.EncodeInt64s(offs)
		p = append(binary.AppendUvarint(p, uint64(len(enc))), enc...)
	}
	switch col.Type {
	case types.Int64:
		return append(p, encoding.EncodeInt64s(col.Ints)...), nil
	case types.Float64:
		return append(p, encoding.EncodeFloat64s(col.Floats)...), nil
	case types.Bool:
		return append(p, encoding.EncodeBools(col.Bools)...), nil
	case types.String:
		return append(p, encoding.EncodeStrings(col.Strs)...), nil
	}
	return nil, fmt.Errorf("colstore: cannot serialize column type %s", col.Type)
}

// UnmarshalBlock parses a serialized block. When wantCols is non-nil, only
// the listed column ordinals are decoded (column pruning); other columns are
// left as empty placeholders of the right type.
func UnmarshalBlock(schema *types.Schema, data []byte, wantCols []int) (*Block, error) {
	r := types.NewReader(data)
	numRows := r.Uvarint()
	if numRows > math.MaxInt32 || r.Uvarint() != uint64(schema.Len()) {
		r.Fail("block header does not fit the schema")
	}
	sizes := make([]int, schema.Len())
	for i := range sizes {
		sizes[i] = r.Len(1)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	want := make(map[int]bool, len(wantCols))
	for _, c := range wantCols {
		want[c] = true
	}
	b := &Block{Schema: schema, NumRows: int(numRows), Columns: make([]*Column, len(sizes))}
	for i, size := range sizes {
		payload := r.Next(size)
		if wantCols != nil && !want[i] {
			b.Columns[i] = NewColumn(schema.Fields[i].Type)
			continue
		}
		col, err := DecodeColumn(schema.Fields[i].Type, payload, int(numRows))
		if err != nil {
			return nil, fmt.Errorf("colstore: column %d (%s): %w", i, schema.Fields[i].Name, err)
		}
		b.Columns[i] = col
	}
	return b, r.End()
}

// DecodeColumn parses one column payload (located by its footer extent)
// without touching the rest of the block. rows is the block's record count:
// a scalar column must hold exactly rows values, and a repeated column rows+1
// offsets that start at 0, never decrease and end at its value count, so
// every record r < rows can be read.
func DecodeColumn(t types.Type, payload []byte, rows int) (*Column, error) {
	r := types.NewReader(payload)
	col := readColumn(&r, t, rows)
	if err := r.End(); err != nil {
		return nil, err
	}
	return col, nil
}

func readColumn(r *types.Reader, t types.Type, rows int) *Column {
	col := NewColumn(t)
	if r.Bool() {
		part := r.Sub(int(r.Uvarint()))
		col.Nulls = bitmap.Read(&part)
		r.Close(&part)
	}
	var offs []int64
	repeated := r.Bool()
	if repeated {
		part := r.Sub(int(r.Uvarint()))
		offs = encoding.ReadInt64s(&part)
		r.Close(&part)
	}
	switch t {
	case types.Int64:
		col.Ints = encoding.ReadInt64s(r)
	case types.Float64:
		col.Floats = encoding.ReadFloat64s(r)
	case types.Bool:
		col.Bools = encoding.ReadBools(r)
	case types.String:
		col.Strs = encoding.ReadStrings(r)
	default:
		r.Fail("unsupported column type")
	}
	n := col.Len()
	switch {
	case col.Nulls != nil && col.Nulls.Len() != n:
		r.Fail("null bitmap and values differ in length")
	case !repeated && n != rows:
		r.Fail("column length differs from the block's row count")
	case repeated && !validOffsets(offs, rows, n):
		r.Fail("repeated column offsets do not cover the block's rows")
	case repeated:
		col.Offsets = make([]int32, len(offs))
		for i, o := range offs {
			col.Offsets[i] = int32(o)
		}
	}
	return col
}

// validOffsets reports whether offs splits n values into rows records: rows+1
// offsets from 0 to n that never decrease, n within int32.
func validOffsets(offs []int64, rows, n int) bool {
	if rows < 0 || len(offs) != rows+1 || offs[0] != 0 || int64(n) != offs[rows] || n > math.MaxInt32 {
		return false
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			return false
		}
	}
	return true
}
