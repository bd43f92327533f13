package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/types"
)

// TestReplyBilledOncePerBatch: a leaf answers its whole batch in one reply,
// and the stem bills that reply once — one transfer of the results' summed
// bytes, charged to the batch's highest-ordinal task whatever order the leaf
// ran the tasks in — so the leaf's busy time is its tasks' leaf sims plus one
// TransferCost. On both fabrics.
func TestReplyBilledOncePerBatch(t *testing.T) {
	for _, mode := range []string{"sim", "tcp"} {
		t.Run(mode, func(t *testing.T) {
			tc := newTestClusterOn(t, mode, 1, 0, 2, nil) // two tasks, one leaf, the master as stem
			model, hops := sim.DefaultCostModel(), tc.net.Topology().Hops("leaf0", "master")
			counters := tc.net.Counters()
			// The leaf runs every other batch back to front: two runs see both orders.
			for run := 0; run < 2; run++ {
				msgs, bytes := counters.Msgs[transport.Read].Value(), counters.Bytes[transport.Read].Value()
				_, stats := tc.query("SELECT id, s FROM logs WHERE v = 3 ORDER BY id", QueryOptions{Trace: true})
				replies := stats.Trace.FindAll("reply-transfer")
				if len(replies) != 1 {
					t.Fatalf("run %d: %d reply-transfer spans for one batch, want 1:\n%s", run, len(replies), stats.Trace.Render())
				}
				if stats.Trace.Find("task#1 @ leaf0").Find("reply-transfer") == nil {
					t.Errorf("run %d: the reply is not billed to the batch's last ordinal:\n%s", run, stats.Trace.Render())
				}
				size := replies[0].CountValue("bytes")
				if got := counters.Msgs[transport.Read].Value() - msgs; got != 1 {
					t.Errorf("run %d: %d read-flow replies counted, want 1", run, got)
				}
				if got := counters.Bytes[transport.Read].Value() - bytes; got != size {
					t.Errorf("run %d: read-flow bytes %d, reply span bytes %d", run, got, size)
				}
				var busy, leafSims time.Duration
				for _, task := range stats.Trace.FindAll("task#") {
					busy += task.Sim()
					leafSims += task.Find("leaf/leaf0").Sim()
				}
				if want := leafSims + model.TransferCost(size, hops); busy != want || stats.ScanSimTime != leafSims {
					t.Errorf("run %d: leaf busy %v (scan %v), want leaf sims %v + one transfer %v",
						run, busy, stats.ScanSimTime, leafSims, model.TransferCost(size, hops))
				}
				if want := busy + 2*model.RPCLatency; stats.SimTime != want { // plus the client's round trip
					t.Errorf("run %d: sim %v, want %v", run, stats.SimTime, want)
				}
			}
		})
	}
}

// TestShuffleMessageBilledOnce: a map task sends its reducer one shuffleMsg
// however many rows it carries, and the sim bills it as one transfer of the
// message's bytes. One map task routes 600 groups to the only reducer, past
// the 256-row frames the sim once billed one by one.
func TestShuffleMessageBilledOnce(t *testing.T) {
	tc := newTestCluster(t, 1, 0, 1, func(cfg *MasterConfig) {
		cfg.Planner = plan.Options{GroupShuffleRows: 1, ShufflePartitions: 1}
	})
	model := sim.DefaultCostModel()
	tc.leaves[0].Model = model // the map task bills what it sends
	schema := types.MustSchema(types.Field{Name: "k", Type: types.Int64})
	w := colstore.NewWriter(schema, 128)
	for k := 0; k < 600; k++ {
		if err := w.Append(types.Row{types.NewInt(int64(k))}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := tc.router.WriteFile(ctx, "/hdfs/keys/p0", data); err != nil {
		t.Fatal(err)
	}
	meta := &plan.TableMeta{Name: "keys", Schema: schema,
		Partitions: []plan.PartitionMeta{{Path: "/hdfs/keys/p0", Rows: 600, Bytes: int64(len(data))}}}
	if err := tc.master.RegisterTable(ctx, meta); err != nil {
		t.Fatal(err)
	}

	res, stats := tc.query("SELECT k, COUNT(*) FROM keys GROUP BY k", QueryOptions{Trace: true})
	if len(res.Rows) != 600 {
		t.Fatalf("%d groups, want 600", len(res.Rows))
	}
	if n := tc.fabric.Msgs[transport.Shuffle].Value(); n != 1 {
		t.Fatalf("%d shuffle messages, want 1", n)
	}
	size := tc.fabric.Bytes[transport.Shuffle].Value()
	st := stats.Trace.Find("shuffle-transfer")
	if st == nil {
		t.Fatalf("no shuffle-transfer span:\n%s", stats.Trace.Render())
	}
	want := model.TransferCost(size, tc.fabric.Topology().Hops("leaf0", "master"))
	if st.Sim() != want {
		t.Errorf("shuffle-transfer sim %v, want one transfer of %d bytes: %v", st.Sim(), size, want)
	}
	if got := st.Children()[0].CountValue("bytes"); got != size {
		t.Errorf("reducer span bytes %d, message bytes %d", got, size)
	}
}
