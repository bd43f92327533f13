package exec

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/types"
)

// shuffleHarness holds a fact table and a file-backed join table so shuffle
// map plans can be executed with the ordinary task machinery.
type shuffleHarness struct {
	t      *testing.T
	cat    plan.MapCatalog
	reader *StoreReader
}

func newShuffleHarness(t *testing.T) *shuffleHarness {
	t.Helper()
	router := storage.NewRouter(storage.NewMemFS("", nil))
	h := &shuffleHarness{t: t, cat: plan.MapCatalog{}, reader: NewStoreReader(router)}

	orders := types.MustSchema(
		types.Field{Name: "k", Type: types.Int64},
		types.Field{Name: "region", Type: types.String},
		types.Field{Name: "amt", Type: types.Int64},
	)
	type orow struct {
		k   int64
		reg string
		amt int64
	}
	odata := []orow{
		{1, "east", 10}, {2, "west", 20}, {3, "east", 30}, {4, "west", 40},
		{5, "east", 50}, {1, "west", 60}, {2, "east", 70}, {9, "west", 80},
		{3, "east", 90}, {9, "east", 100},
	}
	h.writeTable(router, "orders", orders, 2, func(add func([][]types.Value)) {
		for _, r := range odata {
			add([][]types.Value{{types.NewInt(r.k)}, {types.NewString(r.reg)}, {types.NewInt(r.amt)}})
		}
	})

	items := types.MustSchema(
		types.Field{Name: "k", Type: types.Int64},
		types.Field{Name: "name", Type: types.String},
		types.Field{Name: "price", Type: types.Int64},
	)
	type irow struct {
		k     int64
		name  string
		price int64
	}
	idata := []irow{
		{1, "apple", 5}, {2, "pear", 7}, {3, "plum", 3}, {4, "fig", 11},
		{7, "kiwi", 13}, {8, "date", 17},
	}
	h.writeTable(router, "items", items, 3, func(add func([][]types.Value)) {
		for _, r := range idata {
			add([][]types.Value{{types.NewInt(r.k)}, {types.NewString(r.name)}, {types.NewInt(r.price)}})
		}
	})
	return h
}

// writeTable stores records into two partitions of the named table.
func (h *shuffleHarness) writeTable(router *storage.Router, name string, schema *types.Schema, blockRows int, fill func(add func([][]types.Value))) {
	h.t.Helper()
	var parts []plan.PartitionMeta
	var recs [][][]types.Value
	fill(func(rec [][]types.Value) { recs = append(recs, rec) })
	half := (len(recs) + 1) / 2
	for pi, chunk := range [][][][]types.Value{recs[:half], recs[half:]} {
		w := colstore.NewWriter(schema, blockRows)
		for _, rec := range chunk {
			if err := w.AppendRecord(rec); err != nil {
				h.t.Fatal(err)
			}
		}
		data, err := w.Finish()
		if err != nil {
			h.t.Fatal(err)
		}
		path := fmt.Sprintf("/%s/p%d", name, pi)
		if err := router.WriteFile(context.Background(), path, data); err != nil {
			h.t.Fatal(err)
		}
		parts = append(parts, plan.PartitionMeta{Path: path, Rows: int64(len(chunk)), Bytes: int64(len(data))})
	}
	h.cat[name] = &plan.TableMeta{Name: name, Schema: schema, Partitions: parts}
}

func (h *shuffleHarness) plan(sql string, opts plan.Options) *plan.PhysicalPlan {
	h.t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		h.t.Fatalf("parse %q: %v", sql, err)
	}
	p, err := plan.PlanWith(stmt, h.cat, opts)
	if err != nil {
		h.t.Fatalf("plan %q: %v", sql, err)
	}
	return p
}

// runPlanRows executes every task of a (derived) select-mode plan and
// returns the concatenated rows in task order.
func (h *shuffleHarness) runPlanRows(p *plan.PhysicalPlan) [][]types.Value {
	h.t.Helper()
	var rows [][]types.Value
	for _, task := range p.Tasks() {
		tr, err := RunTask(context.Background(), task, h.reader, nil)
		if err != nil {
			h.t.Fatal(err)
		}
		rows = append(rows, tr.Rows...)
	}
	return rows
}

// runShuffled executes sql through the full local shuffle pipeline: map
// scans of the derived plans, hash routing, one reducer operator per
// partition, master-side merge and finalize.
func (h *shuffleHarness) runShuffled(sql string, opts plan.Options, spill SpillStore, billing ShuffleBilling) (*Result, []*PartitionedHashJoin) {
	h.t.Helper()
	p := h.plan(sql, opts)
	sh := p.Shuffle
	if sh == nil || sh.GroupShuffle {
		h.t.Fatalf("plan for %q did not repartition a join (shuffle=%+v)", sql, sh)
	}
	parts := sh.Partitions
	probeParts := make([][][]types.Value, parts)
	for _, r := range h.runPlanRows(sh.ProbePlan) {
		i := ShufflePartition(r, sh.Keys, parts)
		probeParts[i] = append(probeParts[i], r)
	}
	buildParts := make([][][]types.Value, parts)
	for _, r := range h.runPlanRows(sh.BuildPlan) {
		i := ShufflePartition(r, sh.Keys, parts)
		buildParts[i] = append(buildParts[i], r)
	}
	var merged *TaskResult
	var ops []*PartitionedHashJoin
	for i := 0; i < parts; i++ {
		op := NewPartitionedHashJoin(p, spill, billing)
		ops = append(ops, op)
		if err := op.PushBuild(buildParts[i]); err != nil {
			h.t.Fatal(err)
		}
		if err := op.PushProbe(probeParts[i]); err != nil {
			h.t.Fatal(err)
		}
		tr, err := op.Flush()
		if err != nil {
			h.t.Fatal(err)
		}
		merged = MergeResults(p, merged, tr)
	}
	res, err := Finalize(p, merged)
	if err != nil {
		h.t.Fatal(err)
	}
	return res, ops
}

// runBroadcast executes sql on the classic broadcast path, loading the join
// table as a broadcast dimension.
func (h *shuffleHarness) runBroadcast(sql string) *Result {
	h.t.Helper()
	p := h.plan(sql, plan.DefaultOptions())
	if p.Shuffle != nil {
		h.t.Fatalf("broadcast plan for %q unexpectedly shuffled", sql)
	}
	for _, d := range p.Dims {
		d.Data = h.dimData(d.Table.Meta, d.Needed)
	}
	var merged *TaskResult
	for _, task := range p.Tasks() {
		tr, err := RunTask(context.Background(), task, h.reader, nil)
		if err != nil {
			h.t.Fatal(err)
		}
		merged = MergeResults(p, merged, tr)
	}
	res, err := Finalize(p, merged)
	if err != nil {
		h.t.Fatal(err)
	}
	return res
}

// dimData materializes a stored table's Needed columns (what the master's
// loadDims does through the cluster).
func (h *shuffleHarness) dimData(meta *plan.TableMeta, needed []string) [][]types.Value {
	h.t.Helper()
	full := plan.TableMeta{Name: meta.Name, Schema: meta.Schema, Partitions: meta.Partitions}
	stmt, err := sqlparser.Parse("SELECT " + joinCols(needed) + " FROM " + meta.Name)
	if err != nil {
		h.t.Fatal(err)
	}
	p, err := plan.Plan(stmt, plan.MapCatalog{meta.Name: &full})
	if err != nil {
		h.t.Fatal(err)
	}
	return h.runPlanRows(p)
}

func joinCols(cols []string) string {
	out := ""
	for i, c := range cols {
		if i > 0 {
			out += ", "
		}
		out += c
	}
	return out
}

// forceShuffle repartitions every eligible join regardless of size.
func forceShuffle() plan.Options {
	o := plan.DefaultOptions()
	o.BroadcastThreshold = -1
	o.ShufflePartitions = 3
	return o
}

func renderRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		s := ""
		for j, v := range row {
			if j > 0 {
				s += "|"
			}
			s += v.String()
		}
		out[i] = s
	}
	return out
}

func requireSameResult(t *testing.T, want, got *Result) {
	t.Helper()
	w, g := renderRows(want), renderRows(got)
	sort.Strings(w)
	sort.Strings(g)
	if !reflect.DeepEqual(w, g) {
		t.Fatalf("results differ:\nbroadcast: %v\nshuffled:  %v", w, g)
	}
}

func TestShuffleJoinMatchesBroadcastInner(t *testing.T) {
	h := newShuffleHarness(t)
	sql := "SELECT o.region, i.name, o.amt FROM orders o JOIN items i ON o.k = i.k"
	requireSameResult(t, h.runBroadcast(sql), firstResult(h.runShuffled(sql, forceShuffle(), nil, ShuffleBilling{})))
}

func TestShuffleJoinMatchesBroadcastLeftOuter(t *testing.T) {
	h := newShuffleHarness(t)
	sql := "SELECT o.k, o.amt, i.name FROM orders o LEFT OUTER JOIN items i ON o.k = i.k"
	requireSameResult(t, h.runBroadcast(sql), firstResult(h.runShuffled(sql, forceShuffle(), nil, ShuffleBilling{})))
}

func TestShuffleJoinMatchesBroadcastAgg(t *testing.T) {
	h := newShuffleHarness(t)
	sql := "SELECT o.region, COUNT(*), SUM(i.price) FROM orders o JOIN items i ON o.k = i.k GROUP BY o.region ORDER BY o.region"
	requireSameResult(t, h.runBroadcast(sql), firstResult(h.runShuffled(sql, forceShuffle(), nil, ShuffleBilling{})))
}

func TestShuffleJoinMatchesBroadcastResidualAndWhere(t *testing.T) {
	h := newShuffleHarness(t)
	sql := "SELECT o.k, i.price FROM orders o JOIN items i ON o.k = i.k AND i.price > o.k WHERE o.amt > 15 AND i.price < 12"
	requireSameResult(t, h.runBroadcast(sql), firstResult(h.runShuffled(sql, forceShuffle(), nil, ShuffleBilling{})))
}

func firstResult(res *Result, _ []*PartitionedHashJoin) *Result { return res }

func TestShuffleRightOuterJoin(t *testing.T) {
	h := newShuffleHarness(t)
	// Build rows with keys 4, 7, 8 have no matching order (k=4 exists).
	sql := "SELECT o.amt, i.name FROM orders o RIGHT OUTER JOIN items i ON o.k = i.k ORDER BY i.name"
	res, _ := h.runShuffled(sql, forceShuffle(), nil, ShuffleBilling{})
	got := renderRows(res)
	sort.Strings(got)
	want := []string{
		`10|"apple"`, `60|"apple"`, // k=1 twice
		`20|"pear"`, `70|"pear"`, // k=2
		`30|"plum"`, `90|"plum"`, // k=3
		`40|"fig"`,    // k=4
		`NULL|"date"`, // k=8 unmatched, preserved
		`NULL|"kiwi"`, // k=7 unmatched, preserved
	}
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("right outer rows = %v, want %v", got, want)
	}
}

func TestShuffleSpillBitIdenticalAndBilled(t *testing.T) {
	h := newShuffleHarness(t)
	sql := "SELECT o.region, i.name, o.amt FROM orders o JOIN items i ON o.k = i.k"

	clean, _ := h.runShuffled(sql, forceShuffle(), nil, ShuffleBilling{})

	opts := forceShuffle()
	opts.MemoryGrantBytes = 1 // force grace-hash spill on the first build batch
	store := NewMemSpillStore()
	bill := sim.NewBill()
	billing := ShuffleBilling{Model: sim.DefaultCostModel(), Bill: bill}
	spilled, ops := h.runShuffled(sql, opts, store, billing)

	requireSameResult(t, clean, spilled)
	var opBytes int64
	anySpilled := false
	for _, op := range ops {
		opBytes += op.SpilledBytes
		if op.SpilledBytes > 0 {
			anySpilled = true
		}
	}
	if !anySpilled {
		t.Fatal("expected at least one operator to spill under a 1-byte grant")
	}
	if bill.SpillBytes() != store.Written || bill.SpillBytes() != opBytes {
		t.Fatalf("billed spill bytes %d, store wrote %d, operators report %d",
			bill.SpillBytes(), store.Written, opBytes)
	}
	if bill.SpillTime() <= 0 {
		t.Fatal("spill writes should charge simulated time")
	}
}

func TestShuffleSpillOneLevelRecursion(t *testing.T) {
	h := newShuffleHarness(t)
	sql := "SELECT o.k, i.name FROM orders o JOIN items i ON o.k = i.k"
	clean, _ := h.runShuffled(sql, forceShuffle(), nil, ShuffleBilling{})

	// Partitions=1 funnels all rows into one operator; the 1-byte grant
	// keeps every sub-bucket over grant, exercising the recursive split.
	opts := forceShuffle()
	opts.ShufflePartitions = 1
	opts.MemoryGrantBytes = 1
	store := NewMemSpillStore()
	spilled, ops := h.runShuffled(sql, opts, store, ShuffleBilling{})
	requireSameResult(t, clean, spilled)
	if ops[0].SpilledBytes == 0 {
		t.Fatal("operator should have spilled")
	}
}

func TestPartitionedHashJoinNullKeysNeverJoin(t *testing.T) {
	h := newShuffleHarness(t)
	p := h.plan("SELECT o.amt, i.price FROM orders o LEFT OUTER JOIN items i ON o.k = i.k", forceShuffle())
	sh := p.Shuffle
	if sh == nil {
		t.Fatal("expected shuffle plan")
	}
	op := NewPartitionedHashJoin(p, nil, ShuffleBilling{})
	null := types.NullValue()
	// Build: NULL key row and key=1. Probe: NULL key (must null-extend, not
	// match the NULL build row) and key=1 (matches).
	if err := op.PushBuild([][]types.Value{
		{null, types.NewInt(111)},
		{types.NewInt(1), types.NewInt(5)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := op.PushProbe([][]types.Value{
		{null, types.NewInt(10)},
		{types.NewInt(1), types.NewInt(60)},
	}); err != nil {
		t.Fatal(err)
	}
	tr, err := op.Flush()
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(tr.Rows))
	for i, r := range tr.Rows {
		got[i] = r[0].String() + "|" + r[1].String()
	}
	sort.Strings(got)
	want := []string{"10|NULL", "60|5"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

func TestShufflePartitionDeterministicAndInRange(t *testing.T) {
	row := []types.Value{types.NewInt(42), types.NewString("x")}
	p1 := ShufflePartition(row, 1, 7)
	for i := 0; i < 10; i++ {
		if got := ShufflePartition(row, 1, 7); got != p1 {
			t.Fatalf("partition changed: %d then %d", p1, got)
		}
	}
	seen := map[int]bool{}
	for k := int64(0); k < 100; k++ {
		p := ShufflePartition([]types.Value{types.NewInt(k)}, 1, 4)
		if p < 0 || p >= 4 {
			t.Fatalf("partition %d out of range", p)
		}
		seen[p] = true
	}
	if len(seen) < 2 {
		t.Fatal("hash should spread keys over partitions")
	}
}

// runGroupShuffle executes a group-by shuffle locally: map tasks run the
// top plan, partial groups are routed by group key, reducers merge. Odd
// tasks' frames cross the wire codec and enter through PushGroups, as on
// the TCP fabric; even tasks' partial maps are pushed as they are.
func (h *shuffleHarness) runGroupShuffle(sql string, opts plan.Options, spill SpillStore, billing ShuffleBilling) (*Result, []*PartitionedAgg) {
	h.t.Helper()
	p := h.plan(sql, opts)
	sh := p.Shuffle
	if sh == nil || !sh.GroupShuffle {
		h.t.Fatalf("plan for %q did not group-shuffle (shuffle=%+v)", sql, sh)
	}
	aggs := make([]*PartitionedAgg, sh.Partitions)
	for i := range aggs {
		aggs[i] = NewPartitionedAgg(len(p.Aggs), sh.MemoryGrant, spill, billing)
	}
	for ti, task := range p.Tasks() {
		tr, err := RunTask(context.Background(), task, h.reader, nil)
		if err != nil {
			h.t.Fatal(err)
		}
		parts := make([]*Groups, sh.Partitions)
		frames := make([][]Group, sh.Partitions)
		for i := range parts {
			parts[i] = NewGroups(len(p.Aggs))
		}
		for k, g := range tr.Groups.M {
			i := GroupShufflePartition(g.Keys, sh.Partitions)
			if i != KeyShufflePartition(k, sh.Partitions) {
				h.t.Fatalf("key %q routes to %d by key and %d by values", k, KeyShufflePartition(k, sh.Partitions), i)
			}
			parts[i].M[k] = g
			frames[i] = append(frames[i], *g)
		}
		for i, g := range parts {
			if ti%2 == 0 {
				err = aggs[i].Push(g)
			} else {
				var enc []byte
				if enc, err = AppendGroups(nil, frames[i]); err != nil {
					h.t.Fatal(err)
				}
				var back []Group
				if back, _, err = DecodeGroups(enc); err != nil {
					h.t.Fatal(err)
				}
				err = aggs[i].PushGroups(back)
			}
			if err != nil {
				h.t.Fatal(err)
			}
		}
	}
	merged := &TaskResult{Groups: NewGroups(len(p.Aggs))}
	for _, a := range aggs {
		g, err := a.Flush()
		if err != nil {
			h.t.Fatal(err)
		}
		merged.Groups.Merge(g)
	}
	res, err := Finalize(p, merged)
	if err != nil {
		h.t.Fatal(err)
	}
	return res, aggs
}

func TestGroupShuffleMatchesSingleNode(t *testing.T) {
	h := newShuffleHarness(t)
	sql := "SELECT region, COUNT(*), SUM(amt), MIN(k), MAX(k) FROM orders GROUP BY region ORDER BY region"

	baseOpts := plan.DefaultOptions()
	baseOpts.GroupShuffleRows = -1 // classic path
	p := h.plan(sql, baseOpts)
	if p.Shuffle != nil {
		t.Fatal("group shuffle should be disabled")
	}
	var merged *TaskResult
	for _, task := range p.Tasks() {
		tr, err := RunTask(context.Background(), task, h.reader, nil)
		if err != nil {
			t.Fatal(err)
		}
		merged = MergeResults(p, merged, tr)
	}
	want, err := Finalize(p, merged)
	if err != nil {
		t.Fatal(err)
	}

	opts := plan.DefaultOptions()
	opts.GroupShuffleRows = 1 // repartition even tiny tables
	opts.ShufflePartitions = 3
	got, _ := h.runGroupShuffle(sql, opts, nil, ShuffleBilling{})
	requireSameResult(t, want, got)
}

func TestPartitionedAggSpillMatchesAndBills(t *testing.T) {
	h := newShuffleHarness(t)
	sql := "SELECT k, COUNT(*), SUM(amt) FROM orders GROUP BY k ORDER BY k"

	opts := plan.DefaultOptions()
	opts.GroupShuffleRows = 1
	opts.ShufflePartitions = 2
	clean, _ := h.runGroupShuffle(sql, opts, nil, ShuffleBilling{})

	spillOpts := opts
	spillOpts.MemoryGrantBytes = 1
	store := NewMemSpillStore()
	bill := sim.NewBill()
	billing := ShuffleBilling{Model: sim.DefaultCostModel(), Bill: bill}
	spilled, aggs := h.runGroupShuffle(sql, spillOpts, store, billing)
	requireSameResult(t, clean, spilled)

	var opBytes int64
	for _, a := range aggs {
		opBytes += a.SpilledBytes
	}
	if opBytes == 0 {
		t.Fatal("aggregation should have spilled under a 1-byte grant")
	}
	if bill.SpillBytes() != store.Written || bill.SpillBytes() != opBytes {
		t.Fatalf("billed %d, store wrote %d, operators report %d", bill.SpillBytes(), store.Written, opBytes)
	}
}

func TestShuffleOperatorProtocolErrors(t *testing.T) {
	h := newShuffleHarness(t)
	p := h.plan("SELECT o.amt FROM orders o JOIN items i ON o.k = i.k", forceShuffle())
	op := NewPartitionedHashJoin(p, nil, ShuffleBilling{})
	if err := op.PushProbe(nil); err != nil {
		t.Fatal(err)
	}
	if err := op.PushBuild(nil); err == nil {
		t.Fatal("PushBuild after probe should fail")
	}
	if _, err := op.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := op.Flush(); err == nil {
		t.Fatal("double Flush should fail")
	}
	if err := op.PushProbe(nil); err == nil {
		t.Fatal("PushProbe after Flush should fail")
	}

	a := NewPartitionedAgg(1, 1<<20, nil, ShuffleBilling{})
	if _, err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := a.Push(NewGroups(1)); err == nil {
		t.Fatal("Push after Flush should fail")
	}
	if _, err := a.Flush(); err == nil {
		t.Fatal("double Flush should fail")
	}
}
