package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/types"
)

func TestSpanTree(t *testing.T) {
	root := New("query")
	root.SetAttr("user", "alice")
	root.AddSim(10 * time.Millisecond)
	root.AddSim(5 * time.Millisecond)

	c1 := root.Child("stem/stem0")
	c1.SetSim(7 * time.Millisecond)
	c1.Count("tasks", 2)
	c1.Count("tasks", 1)
	leaf := c1.Child("leaf/leaf0")
	leaf.SetSim(3 * time.Millisecond)
	leaf.Finish()
	c1.Finish()
	root.Finish()

	if got := root.Sim(); got != 15*time.Millisecond {
		t.Fatalf("root sim = %v, want 15ms", got)
	}
	if got := root.TotalSim(); got != 25*time.Millisecond {
		t.Fatalf("total sim = %v, want 25ms", got)
	}
	if root.Wall() <= 0 {
		t.Fatal("finished root has zero wall time")
	}
	if got := c1.CountValue("tasks"); got != 3 {
		t.Fatalf("tasks count = %d, want 3", got)
	}
	if got := root.Attr("user"); got != "alice" {
		t.Fatalf("attr user = %q", got)
	}
	if root.Find("leaf/") != leaf {
		t.Fatal("Find did not locate the leaf span")
	}
	if n := len(root.FindAll("stem/")); n != 1 {
		t.Fatalf("FindAll(stem/) = %d spans, want 1", n)
	}
}

func TestFinishIdempotent(t *testing.T) {
	s := New("x")
	s.Finish()
	first := s.Wall()
	time.Sleep(time.Millisecond)
	s.Finish()
	if s.Wall() != first {
		t.Fatal("second Finish overwrote the wall time")
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	// Every method must be a no-op on nil so untraced hot paths are free.
	s.Finish()
	s.AddSim(time.Second)
	s.SetSim(time.Second)
	s.Count("x", 1)
	s.SetAttr("k", "v")
	c := s.Child("child")
	if c != nil {
		t.Fatal("nil span produced a child")
	}
	if s.Sim() != 0 || s.Wall() != 0 || s.Name() != "" || s.Render() != "" {
		t.Fatal("nil span reported non-zero state")
	}
	if s.Find("x") != nil || s.FindAll("x") != nil || s.Counts() != nil || s.Children() != nil {
		t.Fatal("nil span reported descendants")
	}
}

func TestStartSpanWithoutTrace(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "scan")
	if s != nil {
		t.Fatal("StartSpan created a span without an active trace")
	}
	if ctx2 != ctx {
		t.Fatal("StartSpan changed the context without an active trace")
	}
}

func TestStartSpanWithTrace(t *testing.T) {
	root := New("query")
	ctx := NewContext(context.Background(), root)
	ctx2, s := StartSpan(ctx, "scan")
	if s == nil {
		t.Fatal("StartSpan returned nil under an active trace")
	}
	if FromContext(ctx2) != s {
		t.Fatal("returned context does not carry the child span")
	}
	if root.Find("scan") != s {
		t.Fatal("child did not attach to the root")
	}
}

func TestRender(t *testing.T) {
	root := New("master/query")
	root.SetSim(20 * time.Millisecond)
	c := root.Child("leaf/leaf0")
	c.SetSim(5 * time.Millisecond)
	c.Count("index.hit", 2)
	c.SetAttr("partition", "/hdfs/t1/p0")
	c.Finish()
	root.Finish()

	out := root.Render()
	for _, want := range []string{"master/query", "sim=20ms", "└─ leaf/leaf0", "index.hit=2", "{partition=/hdfs/t1/p0}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentChildren(t *testing.T) {
	root := New("query")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := root.Child("task")
			c.Count("rows", 1)
			c.AddSim(time.Microsecond)
			c.Finish()
		}()
	}
	wg.Wait()
	if n := len(root.Children()); n != 16 {
		t.Fatalf("got %d children, want 16", n)
	}
}

// A span tree crosses the wire whole: names, order, start, wall and sim
// times, attributes and counters; a nil span is one byte.
func TestSpanCodecRoundTrip(t *testing.T) {
	if b := AppendSpan(nil, nil); len(b) != 1 {
		t.Fatalf("nil span encodes as %d bytes, want 1", len(b))
	}
	root := New("holder")
	root.Count("limit.skipped", 1)
	leaf := root.Child("leaf/leaf0")
	leaf.SetAttr("partition", "/hdfs/t/p0")
	leaf.SetSim(7 * time.Millisecond)
	scan := leaf.Child("scan")
	scan.Count("rows.scanned", 4096)
	scan.Count("index.hit", -3)
	scan.Finish()
	leaf.Child("read:hdd").Finish()
	leaf.Finish()
	b := AppendSpan(nil, root)
	r := types.NewReader(b)
	got := ReadSpan(&r)
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	if got.Render() != root.Render() {
		t.Fatalf("round trip changed the tree:\n%s\nwant\n%s", got.Render(), root.Render())
	}
	for _, pair := range [][2]*Span{{got, root}, {got.Find("scan"), scan}} {
		if !pair[0].Start().Equal(pair[1].Start()) || pair[0].Wall() != pair[1].Wall() {
			t.Errorf("%s: start %v wall %v, want %v %v", pair[1].Name(), pair[0].Start(), pair[0].Wall(), pair[1].Start(), pair[1].Wall())
		}
	}
	if again := AppendSpan(nil, got); !bytes.Equal(again, b) {
		t.Error("decoded tree re-encodes differently")
	}
	holder := New("")
	holder.Adopt(got)
	if holder.CountValue("limit.skipped") != 1 || len(holder.Children()) != 1 || holder.Children()[0].Name() != "leaf/leaf0" {
		t.Errorf("Adopt: counters %v, children %d", holder.Counts(), len(holder.Children()))
	}
}

// ReadSpan reads untrusted bytes: nesting past maxDepth and counts the bytes
// present cannot hold fail with ErrCorrupt, and what the reader allocates is
// bounded by the depth limit, not by what the input claims.
func TestReadSpanRejectsHostileInput(t *testing.T) {
	// Empty fields, then one child: the next level.
	level := []byte{0, 0, 0, 0, 0, 0, 1}
	deep := append([]byte{1}, bytes.Repeat(level, 100_000)...)
	huge := binary.AppendUvarint([]byte{1, 0, 0, 0, 0, 0, 0}, 1<<40) // 2^40 children
	attrs := binary.AppendUvarint([]byte{1, 0, 0, 0, 0}, 1<<40)      // 2^40 attributes
	for _, tc := range []struct {
		name, why string
		in        []byte
	}{{"deep", "span nesting too deep", deep}, {"huge children", "count exceeds input", huge}, {"huge attributes", "count exceeds input", attrs}} {
		allocs := testing.AllocsPerRun(10, func() {
			r := types.NewReader(tc.in)
			ReadSpan(&r)
			if err := r.End(); !errors.Is(err, types.ErrCorrupt) || !strings.Contains(err.Error(), tc.why) {
				t.Fatalf("%s: err = %v, want ErrCorrupt: %s", tc.name, err, tc.why)
			}
		})
		if allocs > 3*maxDepth {
			t.Errorf("%s: %.0f allocations for %d bytes, want at most %d", tc.name, allocs, len(tc.in), 3*maxDepth)
		}
	}
}
