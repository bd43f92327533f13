package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/transport"
)

// driveWorkload pushes one fixed workload through a plane: transport
// decisions on a few links, storage reads through a wrapped store, and
// lifecycle ticks over fake targets. It is the reference workload for the
// replay tests.
func driveWorkload(t *testing.T, p *Plane) {
	t.Helper()
	ctx := context.Background()
	links := [][2]string{{"master", "leaf0"}, {"master", "leaf1"}, {"stem0", "leaf0"}}
	mem := storage.NewMemFS("", nil)
	if err := mem.WriteFile(ctx, "/blk", []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	wrapped := p.WrapStore(mem)
	targets, _ := fakeTargets(3)
	ctl := p.NewController(targets, []string{"master"})
	for i := 0; i < 200; i++ {
		for _, l := range links {
			p.Intercept(ctx, l[0], l[1], transport.Read, 64)
		}
		wrapped.ReadFile(ctx, "/blk")
		ctl.Tick()
	}
	ctl.Stop()
}

// fakeTarget records lifecycle transitions for assertions.
type fakeTarget struct {
	id string

	mu       sync.Mutex
	down     bool
	stall    time.Duration
	kills    int
	restarts int
}

func (f *fakeTarget) ID() string { return f.id }
func (f *fakeTarget) Kill() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down = true
	f.kills++
}
func (f *fakeTarget) Restart() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down = false
	f.restarts++
}
func (f *fakeTarget) SetStall(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stall = d
}
func (f *fakeTarget) snapshot() (down bool, stall time.Duration, kills, restarts int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.down, f.stall, f.kills, f.restarts
}

func fakeTargets(n int) ([]Target, []*fakeTarget) {
	fakes := make([]*fakeTarget, n)
	targets := make([]Target, n)
	for i := range fakes {
		fakes[i] = &fakeTarget{id: fmt.Sprintf("leaf%d", i)}
		targets[i] = fakes[i]
	}
	return targets, fakes
}

// TestScheduleReplay is the seed-replay guarantee: two planes with the same
// seed driven through the same workload record the identical failure
// schedule, event for event. This is what makes a failed chaos run
// reproducible from its logged seed alone.
func TestScheduleReplay(t *testing.T) {
	cfg := *Default(42)
	cfg.Storage.SlowReadDelay = 0 // keep the replay runs fast
	cfg.Storage.SlowRead = 0
	a, b := New(cfg), New(cfg)
	driveWorkload(t, a)
	driveWorkload(t, b)

	ea, eb := a.Events(), b.Events()
	if len(ea) == 0 {
		t.Fatal("workload fired no faults; chaos config too weak for the test")
	}
	if !reflect.DeepEqual(ea, eb) {
		t.Fatalf("same seed produced different schedules:\nrun A: %d events\nrun B: %d events", len(ea), len(eb))
	}
	if a.FaultCount() != b.FaultCount() {
		t.Fatalf("fault counts differ: %d vs %d", a.FaultCount(), b.FaultCount())
	}

	// A different seed must yield a different schedule (with ~200 draws per
	// site the chance of collision is negligible).
	other := cfg
	other.Seed = 43
	c := New(other)
	driveWorkload(t, c)
	if reflect.DeepEqual(ea, c.Events()) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestScheduleIndependentOfInterleaving drives the same per-link and
// per-extent workloads sequentially on one plane and concurrently on
// another: the canonical Events() order must match, because each decision
// site — a transport link, a storage extent — owns a private stream.
func TestScheduleIndependentOfInterleaving(t *testing.T) {
	cfg := *Default(7)
	cfg.Storage.SlowReadDelay = time.Microsecond
	ctx := context.Background()
	links := [][2]string{{"master", "leaf0"}, {"master", "leaf1"}, {"master", "leaf2"}, {"stem0", "leaf1"}}
	mem := storage.NewMemFS("", nil)
	for i := range links {
		if err := mem.WriteFile(ctx, fmt.Sprintf("/blk%d", i), []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	// Worker i owns link i and two extents of file i.
	work := func(p *Plane, store storage.RangeReader, i int) {
		path := fmt.Sprintf("/blk%d", i)
		for n := 0; n < 300; n++ {
			p.Intercept(ctx, links[i][0], links[i][1], transport.Read, 64)
			store.ReadRange(ctx, path, 0, 8)
			store.ReadRange(ctx, path, 8, 8)
		}
	}

	seq := New(cfg)
	seqStore := seq.WrapStore(mem).(storage.RangeReader)
	for i := range links {
		work(seq, seqStore, i)
	}

	conc := New(cfg)
	concStore := conc.WrapStore(mem).(storage.RangeReader)
	var wg sync.WaitGroup
	for i := range links {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			work(conc, concStore, i)
		}(i)
	}
	wg.Wait()

	if conc.ReadErrs.Value() == 0 || conc.Corruptions.Value() == 0 {
		t.Fatal("no storage faults fired; the storage half of the comparison is vacuous")
	}
	if !reflect.DeepEqual(seq.Events(), conc.Events()) {
		t.Fatal("goroutine interleaving changed the canonical fault schedule")
	}
}

func TestInterceptFaultKinds(t *testing.T) {
	ctx := context.Background()
	t.Run("drop", func(t *testing.T) {
		p := New(Config{Seed: 1, Transport: TransportChaos{Drop: 1}})
		f := p.Intercept(ctx, "a", "b", transport.Read, 1)
		if !f.Drop {
			t.Fatal("Drop=1 did not drop")
		}
		if p.Drops.Value() != 1 {
			t.Fatalf("Drops = %d, want 1", p.Drops.Value())
		}
	})
	t.Run("control drop", func(t *testing.T) {
		// DropControl adds drop probability only for Control-class messages.
		p := New(Config{Seed: 1, Transport: TransportChaos{DropControl: 1}})
		if f := p.Intercept(ctx, "a", "b", transport.Read, 1); f.Drop {
			t.Fatal("DropControl dropped a Data message")
		}
		if f := p.Intercept(ctx, "a", "b", transport.Control, 1); !f.Drop {
			t.Fatal("DropControl=1 did not drop a Control message")
		}
	})
	t.Run("delay", func(t *testing.T) {
		p := New(Config{Seed: 1, Transport: TransportChaos{Delay: 1, MaxDelay: 5 * time.Millisecond}})
		f := p.Intercept(ctx, "a", "b", transport.Read, 1)
		if f.Delay <= 0 || f.Delay > 5*time.Millisecond {
			t.Fatalf("delay %v outside (0, 5ms]", f.Delay)
		}
	})
	t.Run("duplicate", func(t *testing.T) {
		p := New(Config{Seed: 1, Transport: TransportChaos{Duplicate: 1}})
		if f := p.Intercept(ctx, "a", "b", transport.Read, 1); !f.Duplicate {
			t.Fatal("Duplicate=1 did not duplicate")
		}
	})
	t.Run("disabled", func(t *testing.T) {
		p := New(Config{Seed: 1})
		if f := p.Intercept(ctx, "a", "b", transport.Read, 1); f.Drop || f.Duplicate || f.Delay != 0 {
			t.Fatalf("zero config injected a fault: %+v", f)
		}
	})
}

func TestPartition(t *testing.T) {
	p := New(Config{Seed: 1})
	p.Partition("leaf0", "master")
	// Both directions and both argument orders are blocked.
	for _, pair := range [][2]string{{"leaf0", "master"}, {"master", "leaf0"}} {
		f := p.Intercept(context.Background(), pair[0], pair[1], transport.Read, 1)
		if !f.Drop || !errors.Is(f.Err, ErrPartitioned) {
			t.Fatalf("partitioned call %v not blocked: %+v", pair, f)
		}
	}
	if p.Partitions.Value() != 2 {
		t.Fatalf("Partitions = %d, want 2", p.Partitions.Value())
	}
	p.Heal("master", "leaf0")
	if f := p.Intercept(context.Background(), "leaf0", "master", transport.Read, 1); f.Drop {
		t.Fatal("healed partition still blocking")
	}
	if p.Partitioned("leaf0", "leaf1") {
		t.Fatal("unrelated pair reported partitioned")
	}
}

func TestStorageReadError(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemFS("", nil)
	if err := mem.WriteFile(ctx, "/f", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	p := New(Config{Seed: 1, Storage: StorageChaos{ReadErr: 1}})
	s := p.WrapStore(mem)
	if _, err := s.ReadFile(ctx, "/f"); !errors.Is(err, ErrInjectedRead) {
		t.Fatalf("ReadErr=1: got %v, want ErrInjectedRead", err)
	}
	if p.ReadErrs.Value() == 0 {
		t.Fatal("ReadErrs counter not incremented")
	}
	// Writes are never failed or corrupted.
	if err := s.WriteFile(ctx, "/g", []byte("x")); err != nil {
		t.Fatalf("write through chaos store: %v", err)
	}
}

func TestStorageCorruption(t *testing.T) {
	ctx := context.Background()
	orig := []byte("0123456789abcdef")
	mem := storage.NewMemFS("", nil)
	if err := mem.WriteFile(ctx, "/f", orig); err != nil {
		t.Fatal(err)
	}
	p := New(Config{Seed: 1, Storage: StorageChaos{Corrupt: 1}})
	s := p.WrapStore(mem)
	got, err := s.ReadFile(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("corruption changed length: %d -> %d", len(orig), len(got))
	}
	diff := 0
	for i := range got {
		if got[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bytes, want exactly 1", diff)
	}
	// The store's own copy must be untouched: a clean plane reads it back.
	clean, err := mem.ReadFile(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if string(clean) != string(orig) {
		t.Fatal("corruption leaked into the underlying store")
	}
}

// TestStorageCorruptRangeLeavesStoreIntact: a range read is a view of the
// inner store's bytes on MemFS and DFS, so a corrupting read must flip a
// byte of a copy, never of the view.
func TestStorageCorruptRangeLeavesStoreIntact(t *testing.T) {
	ctx := context.Background()
	orig := []byte("0123456789abcdef")
	dfs := storage.NewHDFS("hdfs", nil)
	dfs.AddNode("n0", "r0")
	for _, inner := range []storage.Store{storage.NewMemFS("", nil), dfs, rangelessStore{storage.NewMemFS("", nil)}} {
		if err := inner.WriteFile(ctx, "/f", orig); err != nil {
			t.Fatal(err)
		}
		p := New(Config{Seed: 1, Storage: StorageChaos{Corrupt: 1}})
		s := p.WrapStore(inner).(storage.RangeReader)
		for off := int64(0); off < 12; off += 4 {
			got, err := s.ReadRange(ctx, "/f", off, 4)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got, orig[off:off+4]) {
				t.Fatalf("%T: Corrupt=1 left [%d,+4) intact", inner, off)
			}
		}
		if p.Corruptions.Value() != 3 {
			t.Fatalf("%T: %d corruptions, want 3", inner, p.Corruptions.Value())
		}
		clean, err := inner.ReadFile(ctx, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(clean, orig) {
			t.Fatalf("%T: a corrupting range read wrote into the store: %q", inner, clean)
		}
	}
}

// rangelessStore hides MemFS's RangeReader behind the plain Store interface
// so the wrapper's fallback path (full read + slice) is exercised.
type rangelessStore struct{ storage.Store }

func TestStorageReadRangeFallback(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemFS("", nil)
	if err := mem.WriteFile(ctx, "/f", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	p := New(Config{Seed: 1})
	s := p.WrapStore(rangelessStore{mem}).(storage.RangeReader)
	got, err := s.ReadRange(ctx, "/f", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "2345" {
		t.Fatalf("ReadRange fallback = %q, want %q", got, "2345")
	}
	if _, err := s.ReadRange(ctx, "/f", 8, 4); err == nil {
		t.Fatal("out-of-bounds range did not error")
	}
}

func TestControllerKillRestart(t *testing.T) {
	p := New(Config{Seed: 1, Lifecycle: LifecycleChaos{Kill: 1, DownTicks: 2, MaxDown: 1}})
	targets, fakes := fakeTargets(3)
	ctl := p.NewController(targets, nil)

	ctl.Tick()
	downs := 0
	for _, f := range fakes {
		if down, _, _, _ := f.snapshot(); down {
			downs++
		}
	}
	if downs != 1 {
		t.Fatalf("after first tick %d targets down, want 1", downs)
	}
	if p.Kills.Value() != 1 {
		t.Fatalf("Kills = %d, want 1", p.Kills.Value())
	}

	// MaxDown=1: further ticks may draw kill decisions but must not take a
	// second target down while one is still dead.
	ctl.Tick() // down counter 2 -> 1, no new kill allowed
	downs = 0
	for _, f := range fakes {
		if down, _, _, _ := f.snapshot(); down {
			downs++
		}
	}
	if downs != 1 {
		t.Fatalf("MaxDown=1 violated: %d targets down", downs)
	}

	// The next tick expires the down timer: the victim restarts (and with
	// Kill=1 a fresh victim may immediately be chosen).
	ctl.Tick()
	restarts := 0
	for _, f := range fakes {
		if _, _, _, r := f.snapshot(); r > 0 {
			restarts++
		}
	}
	if restarts == 0 {
		t.Fatal("down timer expired but no target restarted")
	}
	if p.Restarts.Value() == 0 {
		t.Fatal("Restarts counter not incremented")
	}
}

func TestControllerNeverKillsLastAlive(t *testing.T) {
	p := New(Config{Seed: 1, Lifecycle: LifecycleChaos{Kill: 1, DownTicks: 100, MaxDown: 10}})
	targets, fakes := fakeTargets(2)
	ctl := p.NewController(targets, nil)
	for i := 0; i < 20; i++ {
		ctl.Tick()
		alive := 0
		for _, f := range fakes {
			if down, _, _, _ := f.snapshot(); !down {
				alive++
			}
		}
		if alive == 0 {
			t.Fatalf("tick %d: controller killed the last alive target", i+1)
		}
	}
}

func TestControllerStraggleAndHeal(t *testing.T) {
	p := New(Config{Seed: 1, Lifecycle: LifecycleChaos{
		Straggle: 1, StraggleDelay: 5 * time.Millisecond, StraggleTicks: 3,
		Partition: 1, PartitionTicks: 3,
	}})
	targets, fakes := fakeTargets(2)
	ctl := p.NewController(targets, []string{"master"})
	ctl.Tick()

	stalled := 0
	for _, f := range fakes {
		if _, stall, _, _ := f.snapshot(); stall == 5*time.Millisecond {
			stalled++
		}
	}
	if stalled != 1 {
		t.Fatalf("%d targets stalled after tick, want 1", stalled)
	}
	partitioned := p.Partitioned("leaf0", "master") || p.Partitioned("leaf1", "master")
	if !partitioned {
		t.Fatal("Partition=1 tick did not partition any target from master")
	}

	ctl.Heal()
	for _, f := range fakes {
		if down, stall, _, _ := f.snapshot(); down || stall != 0 {
			t.Fatalf("target %s not healed: down=%v stall=%v", f.id, down, stall)
		}
	}
	if p.Partitioned("leaf0", "master") || p.Partitioned("leaf1", "master") {
		t.Fatal("Heal left a partition active")
	}
}

func TestControllerBackgroundTicker(t *testing.T) {
	cfg := Config{Seed: 1, Lifecycle: LifecycleChaos{
		Straggle: 1, StraggleDelay: time.Millisecond, StraggleTicks: 1,
		TickInterval: time.Millisecond,
	}}
	p := New(cfg)
	targets, _ := fakeTargets(2)
	ctl := p.NewController(targets, nil)
	ctl.Start()
	deadline := time.Now().Add(2 * time.Second)
	for ctl.Ticks() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctl.Stop()
	if got := ctl.Ticks(); got < 3 {
		t.Fatalf("background ticker advanced only %d ticks", got)
	}
	// Stop is idempotent and Start after Stop works.
	ctl.Stop()
}

func TestEventsBounded(t *testing.T) {
	p := New(Config{Seed: 1, Transport: TransportChaos{Drop: 1}})
	ctx := context.Background()
	for i := 0; i < maxEvents+50; i++ {
		p.Intercept(ctx, "a", "b", transport.Read, 1)
	}
	if len(p.Events()) != maxEvents {
		t.Fatalf("event log holds %d entries, want cap %d", len(p.Events()), maxEvents)
	}
	if p.EventsLost() != 50 {
		t.Fatalf("EventsLost = %d, want 50", p.EventsLost())
	}
}
