package feisu

import (
	"context"
	"testing"

	"repro/internal/plan"
	"repro/internal/transport"
	"repro/internal/workload"
)

// newEquivSystem builds a System on the given transport with the shared T1
// workload loaded.
func newEquivSystem(t *testing.T, mode string) (*System, *plan.TableMeta) {
	t.Helper()
	sys, err := New(Config{Leaves: 4, Transport: mode})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	ctx := context.Background()
	spec := workload.T1Spec()
	spec.Partitions = 4
	spec.RowsPerPart = 256
	meta, err := workload.Generate(ctx, sys.Router(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterTable(ctx, meta); err != nil {
		t.Fatal(err)
	}
	return sys, meta
}

// TestTCPTransportMatchesSim runs the same generated query battery through
// two identical deployments — one on the deterministic sim fabric, one on
// real loopback sockets — and requires bit-identical results and identical
// simulated time per statement. This is the root-level transport-equivalence
// gate: the wire codec, framing, pooling and server-side dispatch must be
// invisible to query semantics and to the cost model.
func TestTCPTransportMatchesSim(t *testing.T) {
	simSys, _ := newEquivSystem(t, "sim")
	tcpSys, _ := newEquivSystem(t, "tcp")

	wire := tcpSys.WireTransport()
	if wire == nil {
		t.Fatal("tcp system did not expose its wire transport")
	}
	if simSys.WireTransport() != nil {
		t.Fatal("sim system claims a wire transport")
	}

	ctx := context.Background()
	queries := generateEquivalenceQueries(40, 99)
	for _, q := range queries {
		simRes, simStats, err := simSys.QueryStats(ctx, q)
		if err != nil {
			t.Fatalf("sim %q: %v", q, err)
		}
		tcpRes, tcpStats, err := tcpSys.QueryStats(ctx, q)
		if err != nil {
			t.Fatalf("tcp %q: %v", q, err)
		}
		if got, want := renderRows(tcpRes), renderRows(simRes); got != want {
			t.Fatalf("transport divergence on %q:\ntcp: %s\nsim: %s", q, got, want)
		}
		// The cost model is transport-blind: the sim fabric and the wire
		// codec bill the same declared sizes.
		if tcpStats.SimTime != simStats.SimTime {
			t.Fatalf("sim prediction diverged on %q: tcp %v vs sim fabric %v", q, tcpStats.SimTime, simStats.SimTime)
		}
	}

	// The equivalence is only meaningful if the TCP run actually crossed
	// sockets: encoded bytes must have moved on the data lanes.
	var moved int64
	for c := transport.Control; c <= transport.Shuffle; c++ {
		moved += wire.WireBytes[c].Value()
	}
	if moved == 0 {
		t.Fatal("tcp system reported zero wire bytes — calls did not use the socket path")
	}
}

// TestTCPTransportRejectsUnknownMode pins the config surface: a typo'd
// transport name must fail loudly at construction, not fall back to sim.
func TestTCPTransportRejectsUnknownMode(t *testing.T) {
	if _, err := New(Config{Leaves: 4, Transport: "quic"}); err == nil {
		t.Fatal("unknown transport mode accepted")
	}
}
