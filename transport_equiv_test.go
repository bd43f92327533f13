package feisu

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/events"
	"repro/internal/plan"
	"repro/internal/transport"
	"repro/internal/workload"
)

// newEquivSystem builds a System on the given transport with the shared T1
// workload loaded, and a join pair whose joins always repartition and whose
// fact table has more partitions than there are leaves.
func newEquivSystem(t *testing.T, mode string) (*System, *plan.TableMeta) {
	t.Helper()
	sys, err := New(Config{Leaves: 4, Transport: mode, BroadcastThreshold: 1})
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
	join := workload.DefaultJoinSpec()
	join.FactPartitions = 8
	factMeta, dimMeta, _, _, err := workload.GenerateJoin(ctx, sys.Router(), join)
	if err == nil {
		err = sys.RegisterTable(ctx, factMeta)
	}
	if err == nil {
		err = sys.RegisterTable(ctx, dimMeta)
	}
	if err != nil {
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
	// Besides the generated battery: a repartition join, whose map tasks
	// bill one transfer per shuffle message, and a scatter of 8 tasks over 4
	// leaves, whose replies are billed once per leaf batch.
	const join = "SELECT COUNT(*), SUM(f.v) FROM orders f JOIN users d ON f.k = d.k"
	const multi = "SELECT grp, COUNT(*), SUM(v) FROM orders GROUP BY grp"
	queries := append(generateEquivalenceQueries(40, 99), join, multi)
	for _, q := range queries {
		simRes, simStats, err := simSys.QueryStats(ctx, q)
		if err != nil {
			t.Fatalf("sim %q: %v", q, err)
		}
		if q == join || q == multi {
			shuffled, perLeaf := false, map[string]int{}
			for _, e := range simSys.Events().ForQuery(simStats.QueryID) {
				switch e.Kind {
				case events.ShuffleMap:
					shuffled = true
				case events.TaskDone:
					perLeaf[strings.Fields(e.Detail)[0]]++
				}
			}
			if q == join && !shuffled {
				t.Fatalf("%q did not repartition", q)
			}
			if q == multi && len(perLeaf) == simStats.Tasks {
				t.Fatalf("%q ran one task per leaf (%v), not a batch of several", q, perLeaf)
			}
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

// leafCalls counts Control messages sent to a leaf by the nodes that
// dispatch tasks (the master and the stems).
type leafCalls struct{ n atomic.Int64 }

func (c *leafCalls) Intercept(ctx context.Context, from, to string, class transport.Class, size int64) transport.Fault {
	if class == transport.Control && strings.HasPrefix(to, "leaf") && !strings.HasPrefix(from, "leaf") {
		c.n.Add(1)
	}
	return transport.Fault{}
}

// TestOneCallPerLeaf: on either fabric a job sends each leaf it uses one
// message carrying all of that leaf's tasks — for a scatter and for a
// shuffle's map tasks — and a clean statement journals one event per task
// plus its own handful.
func TestOneCallPerLeaf(t *testing.T) {
	for _, mode := range []string{"sim", "tcp"} {
		t.Run(mode, func(t *testing.T) {
			sys, err := New(Config{Leaves: 4, Stems: 2, Transport: mode, HeartbeatInterval: -1, GroupShuffleRows: 1, ShufflePartitions: 2})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sys.Close)
			ctx := context.Background()
			spec := workload.T1Spec()
			spec.RowsPerPart = 128
			meta, err := workload.Generate(ctx, sys.Router(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.RegisterTable(ctx, meta); err != nil {
				t.Fatal(err)
			}
			calls := &leafCalls{}
			sys.fabric.SetInterceptor(calls)
			for _, st := range []struct{ name, sql string }{
				{"scatter", "SELECT COUNT(*), SUM(clicks) FROM T1 WHERE clicks > 3"},
				{"map", "SELECT pos, COUNT(*) FROM T1 GROUP BY pos"},
			} {
				calls.n.Store(0)
				_, stats, err := sys.QueryStats(ctx, st.sql, WithoutResultCache())
				if err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				evs := sys.Events().ForQuery(stats.QueryID)
				leaves, maps := map[string]bool{}, 0
				for _, e := range evs {
					switch e.Kind {
					case events.TaskDone:
						leaves[strings.Fields(e.Detail)[0]] = true
					case events.ShuffleMap:
						maps++
					}
				}
				if want := map[string]int{"scatter": 0, "map": stats.Tasks}[st.name]; maps != want {
					t.Fatalf("%s: %d shuffle.map events for %d tasks, want %d", st.name, maps, stats.Tasks, want)
				}
				if len(leaves) == 0 || len(leaves) >= stats.Tasks {
					t.Fatalf("%s: %d tasks on %d leaves; the test needs leaves holding several tasks", st.name, stats.Tasks, len(leaves))
				}
				if got := calls.n.Load(); got != int64(len(leaves)) {
					t.Errorf("%s: %d calls to leaves for %d tasks on %d leaves, want one per leaf", st.name, got, stats.Tasks, len(leaves))
				}
				if st.name == "scatter" && len(evs) > stats.Tasks+4 {
					t.Errorf("%s: %d events for %d tasks, want at most tasks+4:\n%s", st.name, len(evs), stats.Tasks, renderEvents(evs))
				}
			}
		})
	}
}

// shuffleCalls counts Shuffle-class messages.
type shuffleCalls struct{ n atomic.Int64 }

func (c *shuffleCalls) Intercept(ctx context.Context, from, to string, class transport.Class, size int64) transport.Fault {
	if class == transport.Shuffle {
		c.n.Add(1)
	}
	return transport.Fault{}
}

// TestOneShuffleMessagePerReducer: on either fabric a map task sends each
// reducer exactly one message, for a group-by shuffle and for a repartition
// join alike, so a clean statement's shuffle traffic is map tasks × reducers.
func TestOneShuffleMessagePerReducer(t *testing.T) {
	for _, mode := range []string{"sim", "tcp"} {
		t.Run(mode, func(t *testing.T) {
			sys, _ := newJoinSystem(t, func(c *Config) {
				forceShuffle(c)
				c.Stems, c.Transport, c.GroupShuffleRows = 2, mode, 1
			})
			calls := &shuffleCalls{}
			sys.fabric.SetInterceptor(calls)
			for _, st := range []struct{ name, sql string }{
				{"group", "SELECT grp, COUNT(*), SUM(v) FROM orders GROUP BY grp"},
				{"join", "SELECT f.id, d.name FROM orders f JOIN users d ON f.k = d.k"},
			} {
				calls.n.Store(0)
				_, stats, err := sys.QueryStats(context.Background(), st.sql, WithoutResultCache())
				if err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				if stats.BackupTasks != 0 {
					t.Fatalf("%s: %d backup tasks in a clean run", st.name, stats.BackupTasks)
				}
				if got, want := calls.n.Load(), int64(stats.Tasks*len(sys.stems)); got != want || got == 0 {
					t.Errorf("%s: %d shuffle messages for %d map tasks and %d reducers, want %d", st.name, got, stats.Tasks, len(sys.stems), want)
				}
			}
		})
	}
}
