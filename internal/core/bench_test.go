package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/types"
)

// TestLookupHitAllocatesNothing: an exact hit renders its probe key on the
// stack and hands out the cached vector.
func TestLookupHitAllocatesNothing(t *testing.T) {
	s := New(Options{})
	a := plan.Atom{Col: "dwell", Op: sqlparser.OpGt, Val: types.NewFloat(120.515625)}
	s.Store("/hdfs/logs/part-00003#2", a, bm(4096, 1, 99, 2048), stats(0, 9, 0))
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := s.Lookup(ctx, "/hdfs/logs/part-00003#2", a, 4096); !ok {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Fatalf("an exact hit allocates %v objects, want 0", n)
	}
}

// BenchmarkWarmTask is one leaf task over a partition of 16 blocks whose two
// atoms are all indexed: the fixed cost around the bitmap work.
func BenchmarkWarmTask(b *testing.B) {
	schema := types.MustSchema(types.Field{Name: "clicks", Type: types.Int64}, types.Field{Name: "dwell", Type: types.Float64})
	w := colstore.NewWriter(schema, 1024)
	for i := 0; i < 16*1024; i++ {
		if err := w.Append(types.Row{types.NewInt(int64(i % 17)), types.NewFloat(float64(i%601) / 4)}); err != nil {
			b.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	router := storage.NewRouter(storage.NewMemFS("", nil))
	if err := router.WriteFile(ctx, "/hdfs/logs/part-00000", data); err != nil {
		b.Fatal(err)
	}
	cat := plan.MapCatalog{"logs": {Name: "logs", Schema: schema, Partitions: []plan.PartitionMeta{{Path: "/hdfs/logs/part-00000", Rows: 16 * 1024, Bytes: int64(len(data))}}}}
	stmt, err := sqlparser.Parse("SELECT COUNT(*) FROM logs WHERE clicks > 8 AND dwell <= 77.5")
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Plan(stmt, cat)
	if err != nil {
		b.Fatal(err)
	}
	task, rd, idx := p.Tasks()[0], exec.NewStoreReader(router), New(Options{})
	if _, err := exec.RunTaskModel(ctx, task, rd, idx, nil); err != nil { // cold: stores both atoms for every block
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := exec.RunTaskModel(ctx, task, rd, idx, nil); err != nil || res.Stats.ColumnReads != 0 {
			b.Fatalf("warm task read columns: %+v, %v", res, err)
		}
	}
}

// BenchmarkInvalidateOnePartitionOf64 refreshes one partition of a resident
// index of 64 partitions x 4 blocks x 16 atoms, then stores it again.
func BenchmarkInvalidateOnePartitionOf64(b *testing.B) {
	s := New(Options{})
	vec := bm(4096, 7, 1000, 3000)
	st := stats(0, 9, 0)
	fill := func(part int) {
		for blk := 0; blk < 4; blk++ {
			for a := 0; a < 16; a++ {
				s.Store(fmt.Sprintf("/hdfs/logs/part-%05d#%d", part, blk), atom("c", sqlparser.OpGt, int64(a)), vec, st)
			}
		}
	}
	for part := 0; part < 64; part++ {
		fill(part)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := s.Invalidate("/hdfs/logs/part-00007#"); n != 64 {
			b.Fatalf("invalidated %d entries, want 64", n)
		}
		b.StopTimer()
		fill(7)
		b.StartTimer()
	}
}

func BenchmarkLookupHit(b *testing.B) {
	s := New(Options{})
	a := atom("c", sqlparser.OpGt, 5)
	s.Store("b0", a, bm(4096, 1, 99, 2048), stats(0, 9, 0))
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Lookup(ctx, "b0", a, 4096); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkLookupDerivedComplement(b *testing.B) {
	s := New(Options{})
	s.Store("b0", atom("c", sqlparser.OpGt, 5), bm(4096, 1, 99), stats(0, 9, 0))
	want := atom("c", sqlparser.OpLe, 5)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Lookup(ctx, "b0", want, 4096); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkStoreDense(b *testing.B) {
	s := New(Options{})
	vec := bm(4096, 7, 1000, 3000)
	st := stats(0, 9, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Store(fmt.Sprintf("b%d", i%64), atom("c", sqlparser.OpGt, int64(i%32)), vec, st)
	}
}

func BenchmarkStoreCompressed(b *testing.B) {
	s := New(Options{Compress: true})
	vec := bm(4096, 7, 1000, 3000)
	st := stats(0, 9, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Store(fmt.Sprintf("b%d", i%64), atom("c", sqlparser.OpGt, int64(i%32)), vec, st)
	}
}
