package ingest

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

func logSchema() *types.Schema {
	return types.MustSchema(
		types.Field{Name: "ts", Type: types.Int64},
		types.Field{Name: "user.name", Type: types.String},
		types.Field{Name: "clicks.pos", Type: types.Int64, Repeated: true},
	)
}

func newConverter(t *testing.T) (*Converter, *storage.Router) {
	t.Helper()
	router := storage.NewRouter(storage.NewMemFS("", nil))
	router.Register(storage.NewMemFS("hdfs", nil))
	return &Converter{
		Router:    router,
		Schema:    logSchema(),
		SrcPrefix: "/var/log/app",
		DstPrefix: "/hdfs/applogs",
	}, router
}

func writeRaw(t *testing.T, router *storage.Router, path, content string) {
	t.Helper()
	if err := router.WriteFile(context.Background(), path, []byte(content)); err != nil {
		t.Fatal(err)
	}
}

func TestScanOnceConvertsNewFiles(t *testing.T) {
	conv, router := newConverter(t)
	ctx := context.Background()
	writeRaw(t, router, "/var/log/app/0001.json",
		`{"ts": 1, "user": {"name": "li"}, "clicks": [{"pos": 2}, {"pos": 5}]}
{"ts": 2, "user": {"name": "wang"}}`)

	parts, err := conv.ScanOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 || parts[0].Rows != 2 {
		t.Fatalf("parts = %+v", parts)
	}
	// Converted partition is a valid Feisu file with the right contents.
	data, err := router.ReadFile(ctx, parts[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := colstore.ReadMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := colstore.ReadBlock(data, meta, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if blk.NumRows != 2 {
		t.Errorf("rows = %d", blk.NumRows)
	}
	if vs := blk.RepeatedValues(2, 0); len(vs) != 2 || vs[1].I != 5 {
		t.Errorf("clicks.pos = %v", vs)
	}
	if row := blk.Row(1); row[1].S != "wang" {
		t.Errorf("row 1 = %v", row)
	}

	// Re-scan: nothing new.
	parts, err = conv.ScanOnce(ctx)
	if err != nil || len(parts) != 0 {
		t.Errorf("rescan = %v, %v", parts, err)
	}
}

func TestScanOncePicksUpLaterFiles(t *testing.T) {
	conv, router := newConverter(t)
	ctx := context.Background()
	writeRaw(t, router, "/var/log/app/a.json", `{"ts": 1}`)
	if parts, _ := conv.ScanOnce(ctx); len(parts) != 1 {
		t.Fatal("first file not converted")
	}
	writeRaw(t, router, "/var/log/app/b.json", `{"ts": 2}`)
	parts, err := conv.ScanOnce(ctx)
	if err != nil || len(parts) != 1 {
		t.Fatalf("second scan = %v, %v", parts, err)
	}
}

func TestLenientSkipsMalformed(t *testing.T) {
	conv, router := newConverter(t)
	writeRaw(t, router, "/var/log/app/x.json",
		"{\"ts\": 1}\nnot json at all\n{\"ts\": \"wrong type\"}\n{\"ts\": 3}")
	parts, err := conv.ScanOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 || parts[0].Rows != 2 {
		t.Fatalf("parts = %+v", parts)
	}
	if conv.SkippedRecords != 2 {
		t.Errorf("skipped = %d", conv.SkippedRecords)
	}
}

// TestLenientIngestSkipsWholeRecord: a record rejected on its second field
// leaves nothing of its first behind, so the partition reads back.
func TestLenientIngestSkipsWholeRecord(t *testing.T) {
	conv, router := newConverter(t)
	conv.Schema = types.MustSchema(
		types.Field{Name: "a", Type: types.Int64},
		types.Field{Name: "b", Type: types.Bool},
	)
	writeRaw(t, router, "/var/log/app/x.json", "{\"a\":1,\"b\":2}\n{\"a\":3,\"b\":true}")
	ctx := context.Background()
	parts, err := conv.ScanOnce(ctx)
	if err != nil || len(parts) != 1 || parts[0].Rows != 1 || conv.SkippedRecords != 1 {
		t.Fatalf("parts = %+v, skipped = %d, err = %v", parts, conv.SkippedRecords, err)
	}
	data, err := router.ReadFile(ctx, parts[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := colstore.ReadMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := colstore.ReadBlock(data, meta, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if row := blk.Row(0); blk.NumRows != 1 || row[0].I != 3 || !row[1].B {
		t.Errorf("rows = %d, row 0 = %v", blk.NumRows, row)
	}
}

// TestLongLineDoesNotWedgeConverter: a record longer than any line buffer
// converts, and the files after it still do.
func TestLongLineDoesNotWedgeConverter(t *testing.T) {
	conv, router := newConverter(t)
	ctx := context.Background()
	head, tail := `{"ts": 1, "user": {"name": "`, `"}}`
	name := strings.Repeat("n", 1<<20+10-len(head)-len(tail))
	writeRaw(t, router, "/var/log/app/a.json", head+name+tail)
	parts, err := conv.ScanOnce(ctx)
	if err != nil || len(parts) != 1 || parts[0].Rows != 1 {
		t.Fatalf("long line: parts = %+v, err = %v", parts, err)
	}
	writeRaw(t, router, "/var/log/app/b.json", `{"ts": 2}`)
	if parts, err = conv.ScanOnce(ctx); err != nil || len(parts) != 1 {
		t.Fatalf("next file: parts = %+v, err = %v", parts, err)
	}
	if conv.SkippedRecords != 0 {
		t.Errorf("skipped = %d", conv.SkippedRecords)
	}
}

func TestStrictFailsOnMalformed(t *testing.T) {
	conv, router := newConverter(t)
	conv.Strict = true
	writeRaw(t, router, "/var/log/app/x.json", "{\"ts\": 1}\nnot json")
	if _, err := conv.ScanOnce(context.Background()); err == nil {
		t.Fatal("strict mode should fail")
	}
}

func TestEmptyFileYieldsNoPartition(t *testing.T) {
	conv, router := newConverter(t)
	writeRaw(t, router, "/var/log/app/empty.json", "\n\n")
	parts, err := conv.ScanOnce(context.Background())
	if err != nil || len(parts) != 0 {
		t.Errorf("parts = %v, %v", parts, err)
	}
	// The empty file is still marked processed.
	parts, _ = conv.ScanOnce(context.Background())
	if len(parts) != 0 {
		t.Error("empty file rescanned")
	}
}

func TestWatcherDeliversBatches(t *testing.T) {
	conv, router := newConverter(t)
	var mu sync.Mutex
	var got []plan.PartitionMeta
	w := &Watcher{
		Conv: conv,
		OnNew: func(ctx context.Context, parts []plan.PartitionMeta) error {
			mu.Lock()
			got = append(got, parts...)
			mu.Unlock()
			return nil
		},
	}
	writeRaw(t, router, "/var/log/app/a.json", `{"ts": 1}`)
	w.Start(5 * time.Millisecond)
	defer w.Stop()

	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watcher never delivered")
		}
		time.Sleep(time.Millisecond)
	}
	writeRaw(t, router, "/var/log/app/b.json", `{"ts": 2}`)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("watcher missed the second file")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWatcherReportsErrors(t *testing.T) {
	conv, router := newConverter(t)
	conv.Strict = true
	writeRaw(t, router, "/var/log/app/bad.json", "not json")
	errs := make(chan error, 1)
	w := &Watcher{
		Conv:    conv,
		OnError: func(err error) { errs <- err },
	}
	w.tick()
	select {
	case <-errs:
	default:
		t.Fatal("error not reported")
	}
}

func TestManyFilesDeterministicOrder(t *testing.T) {
	conv, router := newConverter(t)
	for i := 0; i < 5; i++ {
		writeRaw(t, router, fmt.Sprintf("/var/log/app/%04d.json", i), fmt.Sprintf(`{"ts": %d}`, i))
	}
	parts, err := conv.ScanOnce(context.Background())
	if err != nil || len(parts) != 5 {
		t.Fatalf("parts = %v, %v", parts, err)
	}
	for i := 1; i < len(parts); i++ {
		if parts[i].Path <= parts[i-1].Path {
			t.Errorf("partition order not deterministic: %v", parts)
		}
	}
}
