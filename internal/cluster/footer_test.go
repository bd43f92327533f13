package cluster

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestMasterFootersReadBack runs the footer read-back check on the master's
// reader, through the path that uses it: broadcast dimension loads. Once the
// dimension's footer has left the reader (Release drops it as an eviction
// does), the next load reads back an equal footer and the same answer.
func TestMasterFootersReadBack(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 2, nil)
	tc.addUsersDim(t)
	const sql = "SELECT name, COUNT(*) AS n FROM logs JOIN names ON logs.v = names.v WHERE logs.v < 2 GROUP BY name ORDER BY name"
	ctx := context.Background()
	dim := plan.PartitionMeta{Path: "/dims/users"}
	held := func() *colstore.FileMeta {
		t.Helper()
		m, err := tc.master.reader.Meta(ctx, dim)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	first, _ := tc.query(sql, QueryOptions{})
	before := held()
	tc.master.ReleaseFooter(dim.Path)
	again, _ := tc.query(sql, QueryOptions{})
	if !reflect.DeepEqual(again.Rows, first.Rows) {
		t.Fatalf("after the footer was read again: %v, want %v", again.Rows, first.Rows)
	}
	after := held()
	if after == before || !reflect.DeepEqual(after, before) || held() != after {
		t.Fatal("the master did not re-read and cache a footer equal to the one it held")
	}
}

// faultyOnce is a local store that spoils one range read: the n-th after it
// is armed, counting from zero. It spoils a copy; the stored bytes stay as
// written.
type faultyOnce struct {
	*storage.MemFS
	n     int
	spoil func([]byte) ([]byte, error)
	mu    sync.Mutex
	reads int
	fired bool
}

func (f *faultyOnce) arm(n int, spoil func([]byte) ([]byte, error)) {
	f.mu.Lock()
	f.n, f.spoil, f.reads, f.fired = n, spoil, 0, false
	f.mu.Unlock()
}

func (f *faultyOnce) ReadRange(ctx context.Context, path string, off, length int64) ([]byte, error) {
	data, err := f.MemFS.ReadRange(ctx, path, off, length)
	f.mu.Lock()
	defer f.mu.Unlock()
	if err != nil || f.spoil == nil {
		return data, err
	}
	f.reads++
	if f.reads-1 != f.n {
		return data, nil
	}
	f.fired = true
	return f.spoil(append([]byte(nil), data...))
}

// flip inverts byte i of a read (from the end when i is negative).
func flip(i int) func([]byte) ([]byte, error) {
	return func(b []byte) ([]byte, error) {
		if i < 0 {
			i += len(b)
		}
		b[i] ^= 0xFF
		return b, nil
	}
}

// TestBroadcastDimRereadsBadReads: the master reads a broadcast dimension's
// footer tail, then its footer, then its extents. Whichever of those reads
// fails once, with a bad tail, a corrupt footer or extent or a read error,
// the master reads it again, as a leaf's task would be, and the answer is
// the clean one.
func TestBroadcastDimRereadsBadReads(t *testing.T) {
	const sql = "SELECT name, COUNT(*) AS n FROM logs JOIN names ON logs.v = names.v WHERE logs.v < 2 GROUP BY name ORDER BY name"
	for _, c := range []struct {
		name  string
		read  int
		spoil func([]byte) ([]byte, error)
	}{
		{"tail magic", 0, flip(-1)},
		{"tail length", 0, flip(3)}, // the footer's length: larger than the file
		{"footer", 1, flip(0)},
		{"extent", 2, flip(-1)},
		{"read error", 0, func([]byte) ([]byte, error) { return nil, errors.New("injected read error") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			tc := newTestCluster(t, 2, 1, 2, nil)
			local := &faultyOnce{MemFS: storage.NewMemFS("", sim.DefaultCostModel())}
			tc.router.Register(local)
			tc.addUsersDim(t)
			clean, _ := tc.query(sql, QueryOptions{})
			tc.master.ReleaseFooter("/dims/users")
			local.arm(c.read, c.spoil)
			got, _ := tc.query(sql, QueryOptions{})
			if !local.fired {
				t.Fatalf("read %d of the dimension was never made", c.read)
			}
			if !reflect.DeepEqual(got.Rows, clean.Rows) {
				t.Fatalf("after a bad read: %v, want %v", got.Rows, clean.Rows)
			}
		})
	}
}
