package colstore

import (
	"fmt"
	"testing"

	"repro/internal/types"
)

func benchFile(b *testing.B, rows int) ([]byte, *FileMeta) {
	b.Helper()
	schema := types.MustSchema(
		types.Field{Name: "id", Type: types.Int64},
		types.Field{Name: "s", Type: types.String},
		types.Field{Name: "f", Type: types.Float64},
	)
	w := NewWriter(schema, 1024)
	for i := 0; i < rows; i++ {
		if err := w.Append(types.Row{
			types.NewInt(int64(i)), types.NewString(fmt.Sprintf("r%d", i%16)), types.NewFloat(float64(i)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		b.Fatal(err)
	}
	meta, err := ReadMeta(data)
	if err != nil {
		b.Fatal(err)
	}
	return data, meta
}

func BenchmarkWriterAppend(b *testing.B) {
	schema := types.MustSchema(
		types.Field{Name: "id", Type: types.Int64},
		types.Field{Name: "s", Type: types.String},
	)
	w := NewWriter(schema, 4096)
	row := types.Row{types.NewInt(1), types.NewString("abc")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.Append(row); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBlock(b *testing.B) {
	data, meta := benchFile(b, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBlock(data, meta, i%len(meta.Blocks), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSingleColumn(b *testing.B) {
	data, meta := benchFile(b, 8192)
	ext := meta.Blocks[0].ColExtents[0]
	payload := data[ext.Off : ext.Off+ext.Len]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeColumn(types.Int64, payload, meta.Blocks[0].Stats.NumRows); err != nil {
			b.Fatal(err)
		}
	}
}
