package transport

import (
	"context"
	"errors"
	"testing"
)

func TestTopologyDistance(t *testing.T) {
	topo := NewTopology()
	topo.Place("a", "r1", "dc1")
	topo.Place("b", "r1", "dc1")
	topo.Place("c", "r2", "dc1")
	topo.Place("d", "r9", "dc2")
	cases := []struct {
		x, y string
		want int
	}{
		{"a", "a", 0}, {"a", "b", 1}, {"a", "c", 2}, {"a", "d", 3}, {"a", "unknown", 3},
	}
	for _, c := range cases {
		if got := topo.Distance(c.x, c.y); got != c.want {
			t.Errorf("Distance(%s,%s) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
	if topo.Hops("a", "a") != 0 || topo.Hops("a", "b") != 2 || topo.Hops("a", "c") != 4 || topo.Hops("a", "d") != 6 {
		t.Error("hops mapping wrong")
	}
}

func TestCallRoundTrip(t *testing.T) {
	f := NewFabric(nil, Options{})
	f.Register("leaf1", func(ctx context.Context, from string, payload any) (any, error) {
		return payload.(int) * 2, nil
	})
	got, err := f.Call(context.Background(), "master", "leaf1", Control, 21, 100)
	if err != nil || got.(int) != 42 {
		t.Fatalf("call = %v, %v", got, err)
	}
	if f.Msgs[Control].Value() != 1 || f.Bytes[Control].Value() != 100 {
		t.Errorf("counters = %d msgs %d bytes", f.Msgs[Control].Value(), f.Bytes[Control].Value())
	}
}

func TestCallUnknownAndDown(t *testing.T) {
	f := NewFabric(nil, Options{})
	if _, err := f.Call(context.Background(), "m", "ghost", Control, nil, 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown = %v", err)
	}
	f.Register("n", func(context.Context, string, any) (any, error) { return nil, nil })
	f.SetDown("n", true)
	if _, err := f.Call(context.Background(), "m", "n", Control, nil, 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("down = %v", err)
	}
	f.SetDown("n", false)
	if _, err := f.Call(context.Background(), "m", "n", Control, nil, 0); err != nil {
		t.Errorf("up again = %v", err)
	}
	f.Deregister("n")
	if _, err := f.Call(context.Background(), "m", "n", Control, nil, 0); err == nil {
		t.Error("deregistered should fail")
	}
}

func TestClassString(t *testing.T) {
	if Control.String() != "control" || Read.String() != "read" || Shuffle.String() != "shuffle" {
		t.Error("class names")
	}
	if Class(9).String() != "class(9)" {
		t.Error("unknown class")
	}
}

func TestNodes(t *testing.T) {
	f := NewFabric(nil, Options{})
	f.Register("a", func(context.Context, string, any) (any, error) { return nil, nil })
	f.Register("b", func(context.Context, string, any) (any, error) { return nil, nil })
	if got := f.Nodes(); len(got) != 2 {
		t.Errorf("nodes = %v", got)
	}
}
