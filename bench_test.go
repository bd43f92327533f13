package feisu_test

// Micro-benchmarks of the hot query path, for use while working on a change:
//
//	go test -run '^$' -bench . -benchmem .
//
// The repository's benchmark is `bash bench/run.sh` (wall-clock, end to end);
// the paper's figures are `go run ./cmd/feisu-figures` (simulated time).

import (
	"context"
	"fmt"
	"testing"

	feisu "repro"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

func benchSystem(b *testing.B, mut func(*feisu.Config)) *feisu.System {
	b.Helper()
	cfg := feisu.Config{Leaves: 4}
	if mut != nil {
		mut(&cfg)
	}
	sys, err := feisu.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.T1Spec()
	spec.Partitions = 4
	spec.RowsPerPart = 2048
	meta, err := workload.Generate(context.Background(), sys.Router(), spec)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.RegisterTable(context.Background(), meta); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Close)
	return sys
}

// BenchmarkQueryWarmSmartIndex measures a repeated predicate query once the
// index is warm (the paper's steady state).
func BenchmarkQueryWarmSmartIndex(b *testing.B) {
	sys := benchSystem(b, nil)
	ctx := context.Background()
	const q = "SELECT COUNT(*) FROM T1 WHERE clicks > 4 AND pos <= 6"
	if _, err := sys.Query(ctx, q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryNoIndex measures the same query with indexing disabled.
func BenchmarkQueryNoIndex(b *testing.B) {
	sys := benchSystem(b, func(c *feisu.Config) { c.Index = feisu.IndexNone })
	ctx := context.Background()
	const q = "SELECT COUNT(*) FROM T1 WHERE clicks > 4 AND pos <= 6"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryGroupBy measures a grouped aggregation end to end.
func BenchmarkQueryGroupBy(b *testing.B) {
	sys := benchSystem(b, nil)
	ctx := context.Background()
	const q = "SELECT region, COUNT(*), AVG(dwell) FROM T1 GROUP BY region"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParse measures the SQL frontend alone.
func BenchmarkParse(b *testing.B) {
	const q = "SELECT url, COUNT(*) AS n FROM T1 WHERE clicks > 4 AND (pos <= 6 OR query CONTAINS 'maps') GROUP BY url ORDER BY n DESC LIMIT 10"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparser.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoaderAppend measures ingest throughput into the columnar store.
func BenchmarkLoaderAppend(b *testing.B) {
	sys, err := feisu.New(feisu.Config{Leaves: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	schema := feisu.MustSchema(
		feisu.Field{Name: "id", Type: feisu.Int64},
		feisu.Field{Name: "s", Type: feisu.String},
		feisu.Field{Name: "f", Type: feisu.Float64},
	)
	ld, err := sys.NewLoader("ingest", schema, "/hdfs/ingest")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ld.Append(feisu.Row{
			feisu.Int(int64(i)), feisu.Str(fmt.Sprintf("row-%d", i)), feisu.Float(float64(i)),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
