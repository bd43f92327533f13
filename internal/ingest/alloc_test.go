//go:build !race

package ingest

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// TestJSONIngestAllocsPerRecord bounds what converting a file allocates,
// partition writer included: the decoder allocates once per record (its
// strings) and nothing per field.
func TestJSONIngestAllocsPerRecord(t *testing.T) {
	const records = 1024
	var fields []types.Field
	for i, ty := range []types.Type{types.Int64, types.Float64, types.String, types.Int64} {
		for j := 0; j < 6; j++ {
			fields = append(fields, types.Field{Name: fmt.Sprintf("c%d.f%d", i, j), Type: ty})
		}
	}
	schema := types.MustSchema(fields...)
	var raw []byte
	for r := 0; r < records; r++ {
		raw = append(raw, '{')
		for i := 0; i < 4; i++ {
			if i > 0 {
				raw = append(raw, ',')
			}
			raw = append(raw, fmt.Sprintf(`"c%d":{`, i)...)
			for j := 0; j < 6; j++ {
				if j > 0 {
					raw = append(raw, ',')
				}
				raw = append(raw, fmt.Sprintf(`"f%d":`, j)...)
				switch v := r*31 + j*7; i {
				case 0, 3:
					raw = strconv.AppendInt(raw, int64(v*(i+1)), 10)
				case 1:
					raw = strconv.AppendFloat(raw, float64(v)/8, 'g', -1, 64)
				case 2:
					raw = strconv.AppendQuote(raw, fmt.Sprintf("token-%d", v%97))
				}
			}
			raw = append(raw, '}')
		}
		raw = append(raw, "}\n"...)
	}
	router := storage.NewRouter(storage.NewMemFS("", nil))
	router.Register(storage.NewMemFS("hdfs", nil))
	ctx := context.Background()
	if err := router.WriteFile(ctx, "/var/log/app/0001.json", raw); err != nil {
		t.Fatal(err)
	}
	conv := &Converter{Router: router, Schema: schema, SrcPrefix: "/var/log/app", DstPrefix: "/hdfs/applogs", Strict: true}
	var err error
	allocs := testing.AllocsPerRun(3, func() {
		conv.done = nil
		var parts []plan.PartitionMeta
		if parts, err = conv.ScanOnce(ctx); err == nil && (len(parts) != 1 || parts[0].Rows != records) {
			err = fmt.Errorf("parts = %+v", parts)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if per := allocs / records; per > 3 {
		t.Errorf("%.0f allocations for %d records: %.2f per record, want <= 3", allocs, records, per)
	} else {
		t.Logf("%.0f allocations for %d records: %.2f per record", allocs, records, per)
	}
}
