package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/types"
)

// blockingReader parks every Column call until release is closed or the
// call's context ends, so a test can pile up a miss herd on one chunk.
type blockingReader struct {
	meta    *colstore.FileMeta
	release chan struct{}
	calls   atomic.Int32
	fail    bool
}

func (b *blockingReader) Meta(ctx context.Context, part plan.PartitionMeta) (*colstore.FileMeta, error) {
	return b.meta, nil
}

func (b *blockingReader) Column(ctx context.Context, path string, meta *colstore.FileMeta, block, col int) (*colstore.Column, error) {
	b.calls.Add(1)
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if b.fail {
		return nil, errors.New("boom")
	}
	c := colstore.NewColumn(types.Int64)
	_ = c.Append(types.NewInt(42))
	return c, nil
}

// TestSingleflightDedupesMissHerd: N concurrent misses on one chunk issue
// exactly one storage read; the followers wait on the leader's in-flight
// call and are billed (and counted) as hits.
func TestSingleflightDedupesMissHerd(t *testing.T) {
	const n = 8
	f := &blockingReader{meta: testMeta(1, 1, 100), release: make(chan struct{})}
	r := NewReader(f, Options{CapacityBytes: 1000, Prefixes: []string{"/"}, Model: sim.DefaultCostModel()})

	var wg sync.WaitGroup
	bills := make([]*sim.Bill, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		bills[i] = sim.NewBill()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Column(storage.WithBill(context.Background(), bills[i]), "/t", f.meta, 0, 0)
		}(i)
	}
	// Wait until the leader is inside the storage read and every follower
	// has had a chance to join the in-flight call.
	deadline := time.Now().Add(5 * time.Second)
	for r.HerdWaits.Value() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("herd did not assemble: herd_waits=%d", r.HerdWaits.Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(f.release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	if got := f.calls.Load(); got != 1 {
		t.Fatalf("underlying reads = %d, want 1 (singleflight)", got)
	}
	if r.Misses.Value() != 1 {
		t.Errorf("misses = %d, want 1", r.Misses.Value())
	}
	if r.Hits.Value() != n-1 {
		t.Errorf("hits = %d, want %d (herd followers count as hits)", r.Hits.Value(), n-1)
	}
	if r.HerdWaits.Value() != n-1 {
		t.Errorf("herd_waits = %d, want %d", r.HerdWaits.Value(), n-1)
	}
	// Followers are billed as SSD hits: by the time the leader's read
	// lands, the chunk is on SSD for them.
	ssdBilled := 0
	for _, b := range bills {
		if b.Bytes(sim.DeviceSSD) == 100 {
			ssdBilled++
		}
	}
	if ssdBilled != n-1 {
		t.Errorf("followers billed as SSD hits = %d, want %d", ssdBilled, n-1)
	}
}

// TestSingleflightLeaderErrorPropagates: a failed leader read fails the
// whole herd, and nothing is cached.
func TestSingleflightLeaderErrorPropagates(t *testing.T) {
	const n = 4
	f := &blockingReader{meta: testMeta(1, 1, 100), release: make(chan struct{}), fail: true}
	r := NewReader(f, Options{CapacityBytes: 1000, Prefixes: []string{"/"}})

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Column(context.Background(), "/t", f.meta, 0, 0)
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.HerdWaits.Value() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("herd did not assemble: herd_waits=%d", r.HerdWaits.Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(f.release)
	wg.Wait()

	for i, err := range errs {
		if err == nil {
			t.Fatalf("reader %d: expected the leader's error", i)
		}
	}
	if got := f.calls.Load(); got != 1 {
		t.Fatalf("underlying reads = %d, want 1", got)
	}
	if r.Bytes() != 0 {
		t.Error("failed read must not be cached")
	}
	// The chunk is fetchable again after the failure (no stuck in-flight
	// entry).
	f.fail = false
	f.release = make(chan struct{})
	close(f.release)
	if _, err := r.Column(context.Background(), "/t", f.meta, 0, 0); err != nil {
		t.Fatalf("retry after failed leader: %v", err)
	}
}

// TestSingleflightFollowerHonorsContext: a follower whose context is
// canceled stops waiting instead of blocking on a stuck leader.
func TestSingleflightFollowerHonorsContext(t *testing.T) {
	f := &blockingReader{meta: testMeta(1, 1, 100), release: make(chan struct{})}
	r := NewReader(f, Options{CapacityBytes: 1000, Prefixes: []string{"/"}})

	go func() { _, _ = r.Column(context.Background(), "/t", f.meta, 0, 0) }() // leader, parked
	deadline := time.Now().Add(5 * time.Second)
	for f.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never reached storage")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := r.Column(ctx, "/t", f.meta, 0, 0)
		done <- err
	}()
	for r.HerdWaits.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the in-flight call")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled follower still waiting on the leader")
	}
	close(f.release) // unpark the leader for cleanup
}

// TestSingleflightLeaderCancelDoesNotFailFollower: a leader that gives up
// (its own task timed out or was canceled) does not fail a follower whose
// context is still live; the follower reads the chunk itself.
func TestSingleflightLeaderCancelDoesNotFailFollower(t *testing.T) {
	f := &blockingReader{meta: testMeta(1, 1, 100), release: make(chan struct{})}
	r := NewReader(f, Options{CapacityBytes: 1000, Prefixes: []string{"/"}})

	leaderCtx, cancel := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := r.Column(leaderCtx, "/t", f.meta, 0, 0)
		leaderDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for f.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never reached storage")
		}
		time.Sleep(time.Millisecond)
	}
	followerDone := make(chan error, 1)
	go func() {
		_, err := r.Column(context.Background(), "/t", f.meta, 0, 0)
		followerDone <- err
	}()
	for r.HerdWaits.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the in-flight call")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader returned %v, want context.Canceled", err)
	}
	close(f.release)
	select {
	case err := <-followerDone:
		if err != nil {
			t.Fatalf("follower with live ctx failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower still waiting")
	}
	if got := f.calls.Load(); got != 2 {
		t.Errorf("underlying reads = %d, want 2 (the canceled leader's and the follower's own)", got)
	}
	if r.Bytes() != 100 {
		t.Errorf("cached bytes = %d, want 100: the follower's read is cached", r.Bytes())
	}
}
