package storage_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/chaos"
	"repro/internal/sim"
	"repro/internal/storage"
)

// rangeless hides a store's RangeReader, so a router over it takes the
// full-read fallback.
type rangeless struct{ storage.Store }

// TestRangeReaderContract runs one set of range reads over every store that
// serves them: the bytes are ReadFile's, the bill is the range, the result
// is clipped so an append cannot reach the next extent, and a view taken
// before a rewrite or truncation keeps its bytes.
func TestRangeReaderContract(t *testing.T) {
	model := sim.DefaultCostModel()
	dfs := func(block int64) storage.Store {
		d := storage.NewHDFS("hdfs", model)
		d.SetBlockSize(block)
		d.AddNode("n0", "r0")
		d.AddNode("n1", "r1")
		return d
	}
	// Each case reads through rr and rewrites through w.
	type store struct {
		rr storage.RangeReader
		w  interface {
			WriteFile(ctx context.Context, path string, data []byte) error
		}
		// fullBill: the fallback reads, and bills, the whole file.
		fullBill bool
	}
	mem := func() storage.Store { return storage.NewMemFS("mem", model) }
	plain := func(s storage.Store) store { return store{rr: s.(storage.RangeReader), w: s} }
	cases := map[string]func(t *testing.T) store{
		"dfs":       func(*testing.T) store { return plain(dfs(64 << 20)) },
		"dfs-4byte": func(*testing.T) store { return plain(dfs(4)) },
		"memfs":     func(*testing.T) store { return plain(mem()) },
		"localfs": func(t *testing.T) store {
			return plain(storage.NewLocalFS(t.TempDir(), model))
		},
		"chaos": func(*testing.T) store {
			return plain(chaos.New(chaos.Config{Seed: 1}).WrapStore(mem()))
		},
		"router-fallback": func(*testing.T) store {
			r := storage.NewRouter(rangeless{mem()})
			return store{rr: r, w: r, fullBill: true}
		},
	}
	data := []byte("0123456789abcdefghijklmnopqrstuvwxyz")
	size := int64(len(data))
	ranges := []struct{ off, n int64 }{{0, size}, {0, 3}, {3, 6}, {4, 4}, {size - 5, 5}, {7, 0}}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			s := mk(t)
			if err := s.w.WriteFile(ctx, "/f", data); err != nil {
				t.Fatal(err)
			}
			for _, rg := range ranges {
				bill := sim.NewBill()
				got, err := s.rr.ReadRange(storage.WithBill(ctx, bill), "/f", rg.off, rg.n)
				if err != nil {
					t.Fatalf("[%d,+%d): %v", rg.off, rg.n, err)
				}
				if want := data[rg.off : rg.off+rg.n]; !bytes.Equal(got, want) {
					t.Fatalf("[%d,+%d) = %q, want %q", rg.off, rg.n, got, want)
				}
				wantBill := rg.n
				if s.fullBill {
					wantBill = size
				}
				if b := billed(bill); b != wantBill {
					t.Errorf("[%d,+%d) billed %d bytes, want %d", rg.off, rg.n, b, wantBill)
				}
				if cap(got) != len(got) {
					t.Errorf("[%d,+%d): cap %d, len %d", rg.off, rg.n, cap(got), len(got))
				}
				_ = append(got, '!')
				again, err := s.rr.ReadRange(ctx, "/f", 0, size)
				if err != nil || !bytes.Equal(again, data) {
					t.Fatalf("after an append to [%d,+%d): %q, %v", rg.off, rg.n, again, err)
				}
			}

			for _, rg := range []struct{ off, n int64 }{{size - 2, 5}, {-1, 2}, {0, -1}, {size + 1, 0}} {
				if _, err := s.rr.ReadRange(ctx, "/f", rg.off, rg.n); err == nil {
					t.Errorf("[%d,+%d) outside %d bytes read without error", rg.off, rg.n, size)
				}
			}
			if _, err := s.rr.ReadRange(ctx, "/missing", 0, 1); !errors.Is(err, storage.ErrNotFound) {
				t.Errorf("missing path: %v, want ErrNotFound", err)
			}

			view, err := s.rr.ReadRange(ctx, "/f", 2, 8)
			if err != nil {
				t.Fatal(err)
			}
			want := bytes.Clone(view)
			if err := s.w.WriteFile(ctx, "/f", bytes.ToUpper(data)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(view, want) {
				t.Fatalf("a rewrite changed an earlier view: %q, want %q", view, want)
			}
			if err := s.w.WriteFile(ctx, "/f", data[:3]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(view, want) {
				t.Fatalf("a truncation changed an earlier view: %q, want %q", view, want)
			}
		})
	}
}

// billed sums the bytes bill charged over every device class.
func billed(bill *sim.Bill) int64 {
	n := int64(0)
	for _, b := range bill.DeviceBytes() {
		n += b
	}
	return n
}
