package exec_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// footerFiles writes n partition files whose footers differ in size (one to
// four blocks each) and returns their metas and their footers' encoded
// lengths.
func footerFiles(t *testing.T, n int) (*storage.Router, []plan.PartitionMeta, []int64) {
	t.Helper()
	ctx := context.Background()
	router := storage.NewRouter(storage.NewMemFS("", nil))
	schema := types.MustSchema(types.Field{Name: "a", Type: types.Int64}, types.Field{Name: "s", Type: types.String})
	var parts []plan.PartitionMeta
	var lens []int64
	for i := 0; i < n; i++ {
		w := colstore.NewWriter(schema, 16)
		rows := 16 * (1 + i%4)
		for r := 0; r < rows; r++ {
			if err := w.Append(types.Row{types.NewInt(int64(i*1000 + r)), types.NewString(fmt.Sprintf("v%d", r))}); err != nil {
				t.Fatal(err)
			}
		}
		data, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		p := plan.PartitionMeta{Path: fmt.Sprintf("/t/p%d", i), Rows: int64(rows), Bytes: int64(len(data))}
		if err := router.WriteFile(ctx, p.Path, data); err != nil {
			t.Fatal(err)
		}
		one := exec.NewStoreReader(router)
		if _, err := one.Meta(ctx, p); err != nil {
			t.Fatal(err)
		}
		parts, lens = append(parts, p), append(lens, one.FooterBytes())
	}
	return router, parts, lens
}

// TestFooterEvictionOrder pins the footers a reader evicts, for a seeded
// stream of Meta calls, under a bound lowered to 800 bytes: the eight
// footers are 99 to 386 bytes, 1 939 together.
func TestFooterEvictionOrder(t *testing.T) {
	router, parts, _ := footerFiles(t, 8)
	sr := exec.NewStoreReader(router)
	const bound = 800
	exec.LowerFooterBound(sr, bound)
	rng := rand.New(rand.NewSource(4))
	ctx := context.Background()
	var out []string
	for i := 0; i < 150; i++ {
		k := rng.Intn(len(parts))
		if rng.Intn(2) == 0 {
			k = rng.Intn(2)
		}
		held := append(exec.HeldFooters(sr), parts[k].Path)
		if _, err := sr.Meta(ctx, parts[k]); err != nil {
			t.Fatal(err)
		}
		if b := sr.FooterBytes(); b > bound {
			t.Fatalf("op %d: %d footer bytes over the %d bound", i, b, bound)
		}
		now := exec.HeldFooters(sr)
		var gone []string
		for _, p := range held {
			if !slices.Contains(now, p) && !slices.Contains(gone, p) {
				gone = append(gone, p)
			}
		}
		if len(gone) > 0 {
			sort.Strings(gone)
			out = append(out, fmt.Sprintf("%d:%s", i, strings.Join(gone, ",")))
		}
	}
	const want = "13:/t/p4,/t/p7 15:/t/p1 16:/t/p3 20:/t/p5 22:/t/p1 25:/t/p4 29:/t/p0,/t/p6 33:/t/p3,/t/p5 39:/t/p0,/t/p1,/t/p5 43:/t/p6 45:/t/p7 58:/t/p2 59:/t/p0,/t/p1,/t/p4 60:/t/p6 61:/t/p7 63:/t/p2 66:/t/p7 68:/t/p1 70:/t/p4,/t/p5 75:/t/p7 76:/t/p1 77:/t/p0 78:/t/p3,/t/p5 89:/t/p6 93:/t/p3,/t/p4 97:/t/p0,/t/p1 98:/t/p7 107:/t/p3 110:/t/p1 113:/t/p2 114:/t/p6 116:/t/p0,/t/p7 119:/t/p3 124:/t/p6 129:/t/p2 134:/t/p3 137:/t/p4 140:/t/p5 142:/t/p1 143:/t/p6 147:/t/p4"
	if got := strings.Join(out, " "); got != want {
		t.Fatalf("footer evictions changed:\n got %s\nwant %s", got, want)
	}
}

// TestFooterBound: with more footers loaded than the bound holds, the reader
// keeps at most the bound, and a footer it evicted reads back equal to the
// one it held before.
func TestFooterBound(t *testing.T) {
	router, parts, lens := footerFiles(t, 8)
	var sum int64
	for _, l := range lens {
		sum += l
	}
	sr := exec.NewStoreReader(router)
	exec.LowerFooterBound(sr, sum/3)
	ctx := context.Background()
	first := make([]*colstore.FileMeta, len(parts))
	for i, p := range parts {
		m, err := sr.Meta(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = m
		if b := sr.FooterBytes(); b > sum/3 {
			t.Fatalf("after %d footers: %d bytes held, bound %d", i+1, b, sum/3)
		}
	}
	reread := 0
	for i, p := range parts {
		m, err := sr.Meta(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if m != first[i] {
			reread++
			if !reflect.DeepEqual(m, first[i]) {
				t.Fatalf("%s: the footer read after its eviction differs from the one held before", p.Path)
			}
		}
	}
	if reread == 0 {
		t.Fatal("no footer was evicted: the test bound is too loose")
	}
}

// TestEvictedFooterChunksMiss: chunks the column cache holds under a footer
// the reader has since evicted are keyed by the old *FileMeta, so the re-read
// footer's first read of each is a miss that returns the same chunk.
func TestEvictedFooterChunksMiss(t *testing.T) {
	router, parts, lens := footerFiles(t, 4)
	sr := exec.NewStoreReader(router)
	exec.LowerFooterBound(sr, lens[0])
	r := cache.NewReader(sr, cache.Options{CapacityBytes: 1 << 20, Prefixes: []string{"/"}})
	ctx := context.Background()
	old, err := r.Meta(ctx, parts[0])
	if err != nil {
		t.Fatal(err)
	}
	before, err := r.Column(ctx, parts[0].Path, old, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Meta(ctx, parts[1]); err != nil { // evicts parts[0]'s footer
		t.Fatal(err)
	}
	m, err := r.Meta(ctx, parts[0])
	if err != nil {
		t.Fatal(err)
	}
	if m == old {
		t.Fatal("footer was not evicted")
	}
	misses := r.Misses.Value()
	after, err := r.Column(ctx, parts[0].Path, m, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Misses.Value() != misses+1 {
		t.Fatalf("a chunk under the re-read footer was served from the cache")
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatal("the re-read chunk differs")
	}
}
