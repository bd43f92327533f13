package cluster

// Payload round-trip conformance: every registered cluster RPC payload type
// must survive the wire codec with its content intact. Samples are built
// reflectively with every exported field populated, so a field that a packed
// codec forgets, or that gob silently drops (unexported, unsupported), fails
// the DeepEqual — before it becomes a live wire bug. The walk also rejects
// unexported fields outright unless the type provides its own GobEncoder.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/sqlparser"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/workload"
)

var (
	gobEncoderT = reflect.TypeOf((*gob.GobEncoder)(nil)).Elem()
	spanT       = reflect.TypeOf((*trace.Span)(nil))
)

// fillValue populates v with deterministic non-zero data. Interface fields
// are always given a leaf value regardless of depth — a nil interface
// element inside a slice is not encodable. onPath tracks struct types on
// the current fill path: the plan graph is recursive by TYPE (a shuffle
// plan's map sub-plans are plans), so a pointer re-entering a type already
// being filled stays nil, exactly as real plans terminate.
func fillValue(t testing.TB, v reflect.Value, seed *int, depth int, onPath map[reflect.Type]bool) {
	t.Helper()
	*seed++
	n := *seed
	if v.Kind() == reflect.Interface {
		if v.Type() == reflect.TypeOf((*sqlparser.Expr)(nil)).Elem() {
			v.Set(reflect.ValueOf(sampleExpr(n)))
			return
		}
		t.Fatalf("no sample for interface field type %v — teach the conformance filler about it", v.Type())
	}
	if v.Type() == spanT { // a live span packs itself (trace.AppendSpan)
		v.Set(reflect.ValueOf(sampleSpan(n)))
		return
	}
	// With type re-entry cut at pointers, the fill terminates; the cap only
	// guards against an unbounded shape sneaking in. Bailing mid-graph
	// would leave nil slice elements, which gob refuses, so it is fatal.
	if depth > 64 {
		t.Fatalf("fill depth exceeded at %v — unbounded payload type?", v.Type())
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(n % 200))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", n))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < 2; i++ {
			fillValue(t, s.Index(i), seed, depth+1, onPath)
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillValue(t, v.Index(i), seed, depth+1, onPath)
		}
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 2; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			fillValue(t, k, seed, depth+1, onPath)
			mv := reflect.New(v.Type().Elem()).Elem()
			fillValue(t, mv, seed, depth+1, onPath)
			m.SetMapIndex(k, mv)
		}
		v.Set(m)
	case reflect.Ptr:
		if onPath[v.Type().Elem()] {
			return // recursive type: terminate like a real value does
		}
		p := reflect.New(v.Type().Elem())
		fillValue(t, p.Elem(), seed, depth+1, onPath)
		v.Set(p)
	case reflect.Struct:
		fillStruct(t, v, seed, depth, onPath)
	default:
		t.Fatalf("unsupported kind %v (%v)", v.Kind(), v.Type())
	}
}

func fillStruct(t testing.TB, v reflect.Value, seed *int, depth int, onPath map[reflect.Type]bool) {
	t.Helper()
	onPath[v.Type()] = true
	defer delete(onPath, v.Type())
	// Types with custom gob encoding build their sample through their own
	// constructor so derived unexported state is consistent.
	switch v.Type() {
	case reflect.TypeOf(types.Schema{}):
		v.Set(reflect.ValueOf(*types.MustSchema(
			types.Field{Name: fmt.Sprintf("a%d", *seed), Type: types.Int64},
			types.Field{Name: fmt.Sprintf("b%d", *seed), Type: types.String, Repeated: true},
		)))
		return
	case reflect.TypeOf(types.Value{}):
		// A Value is a tagged union: only the field its type selects is
		// state, and only that crosses the wire.
		*seed++
		v.Set(reflect.ValueOf(sampleValue(*seed)))
		return
	case reflect.TypeOf(exec.Groups{}):
		// The map keys are derived from the group keys.
		g := exec.NewGroups(2)
		for i := 0; i < 2; i++ {
			*seed++
			grp := g.Get([]types.Value{sampleValue(*seed), sampleValue(*seed + 1)})
			for c := range grp.Cells {
				fillValue(t, reflect.ValueOf(&grp.Cells[c]).Elem(), seed, depth+1, onPath)
			}
		}
		v.Set(reflect.ValueOf(*g))
		return
	}
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() {
			if v.Addr().Type().Implements(gobEncoderT) || v.Type().Implements(gobEncoderT) {
				continue
			}
			t.Fatalf("%v has unexported field %q and no GobEncoder: it would be silently dropped on the wire", v.Type(), f.Name)
		}
		fillValue(t, v.Field(i), seed, depth+1, onPath)
	}
}

// sampleValue cycles through every value type, NULL included.
func sampleValue(n int) types.Value {
	switch n % 5 {
	case 0:
		return types.NullValue()
	case 1:
		return types.NewInt(int64(n))
	case 2:
		return types.NewFloat(float64(n) + 0.5)
	case 3:
		return types.NewBool(n%2 == 1)
	default:
		return types.NewString(fmt.Sprintf("v%d", n))
	}
}

// sampleSpan returns a holder span with every field the wire carries set:
// sim and wall times, an attribute, a counter and a child with its own.
func sampleSpan(n int) *trace.Span {
	s := trace.New(fmt.Sprintf("span%d", n))
	s.SetSim(time.Duration(n) * time.Microsecond)
	s.SetWall(time.Duration(n) * time.Millisecond)
	s.SetAttr("part", fmt.Sprintf("/p%d", n))
	s.Count("limit.skipped", int64(n))
	c := s.Child(fmt.Sprintf("leaf/leaf%d", n))
	c.SetSim(time.Duration(n))
	c.Count("rows", -int64(n))
	c.Finish()
	return s
}

// spanDiff compares two span trees by everything a span shows — names,
// order, times, counters, attributes (Render) — and their start times.
func spanDiff(path string, a, b *trace.Span) string {
	if a.Render() != b.Render() {
		return fmt.Sprintf("%s: span tree\n%s\nvs\n%s", path, a.Render(), b.Render())
	}
	if !a.Start().Equal(b.Start()) {
		return fmt.Sprintf("%s: span %q start %v vs %v", path, a.Name(), a.Start(), b.Start())
	}
	bc := b.Children()
	for i, c := range a.Children() {
		if d := spanDiff(path+"/"+c.Name(), c, bc[i]); d != "" {
			return d
		}
	}
	return ""
}

// sampleExpr returns a small expression tree covering several node kinds.
func sampleExpr(n int) sqlparser.Expr {
	switch n % 4 {
	case 0:
		return &sqlparser.Literal{Value: types.Value{T: types.Int64, I: int64(n)}}
	case 1:
		return &sqlparser.ColumnRef{Parts: []string{"t", "c"}, Table: "t", Column: fmt.Sprintf("c%d", n)}
	case 2:
		return &sqlparser.BinaryExpr{
			Op: sqlparser.OpGt,
			L:  &sqlparser.ColumnRef{Parts: []string{"c"}, Column: fmt.Sprintf("c%d", n)},
			R:  &sqlparser.Literal{Value: types.Value{T: types.Float64, F: float64(n)}},
		}
	default:
		return &sqlparser.NotExpr{X: &sqlparser.IsNullExpr{X: &sqlparser.ColumnRef{Parts: []string{"x"}, Column: "x"}}}
	}
}

// deepDiff locates the first differing path between two equal-typed values
// ("" when they are equal). Span trees compare by spanDiff: a decoded start
// time has no monotonic clock reading.
func deepDiff(path string, a, b reflect.Value) string {
	if a.Kind() != b.Kind() {
		return fmt.Sprintf("%s: kind %v vs %v", path, a.Kind(), b.Kind())
	}
	if a.Type() == spanT {
		return spanDiff(path, a.Interface().(*trace.Span), b.Interface().(*trace.Span))
	}
	switch a.Kind() {
	case reflect.Ptr, reflect.Interface:
		if a.IsNil() != b.IsNil() {
			return fmt.Sprintf("%s: nil %v vs %v", path, a.IsNil(), b.IsNil())
		}
		if a.IsNil() {
			return ""
		}
		return deepDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		if !a.CanAddr() {
			aa := reflect.New(a.Type()).Elem()
			aa.Set(a)
			a = aa
		}
		if !b.CanAddr() {
			bb := reflect.New(b.Type()).Elem()
			bb.Set(b)
			b = bb
		}
		for i := 0; i < a.NumField(); i++ {
			f := a.Type().Field(i)
			fa, fb := a.Field(i), b.Field(i)
			if !f.IsExported() {
				fa = reflect.NewAt(fa.Type(), fa.Addr().UnsafePointer()).Elem()
				fb = reflect.NewAt(fb.Type(), fb.Addr().UnsafePointer()).Elem()
			}
			if d := deepDiff(path+"."+f.Name, fa, fb); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() {
			return fmt.Sprintf("%s: nil slice %v vs %v", path, a.IsNil(), b.IsNil())
		}
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := deepDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Map:
		if a.IsNil() != b.IsNil() {
			return fmt.Sprintf("%s: nil map %v vs %v", path, a.IsNil(), b.IsNil())
		}
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: map len %d vs %d", path, a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v]: missing in decoded copy", path, k)
			}
			if d := deepDiff(fmt.Sprintf("%s[%v]", path, k), a.MapIndex(k), bv); d != "" {
				return d
			}
		}
		return ""
	default:
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			return fmt.Sprintf("%s: %v vs %v", path, a.Interface(), b.Interface())
		}
		return ""
	}
}

// notCarried names the task fields the cluster codec leaves behind, beside
// the plan's own plan.MasterOnly.
var notCarried = map[string]bool{"TaskSpec.Workers": true}

// zeroMasterOnly zeroes, in place, every plan field the wire does not carry
// (plan.MasterOnly, notCarried) anywhere inside v.
func zeroMasterOnly(v reflect.Value, seen map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		zeroMasterOnly(v.Elem(), seen)
	case reflect.Interface:
		if !v.IsNil() {
			zeroMasterOnly(v.Elem(), seen)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			zeroMasterOnly(v.Index(i), seen)
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			zeroMasterOnly(v.MapIndex(k), seen)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			name := v.Type().Name() + "." + f.Name
			if _, ok := plan.MasterOnly[name]; (ok || notCarried[name]) && v.Type().PkgPath() == "repro/internal/plan" {
				v.Field(i).SetZero()
				continue
			}
			zeroMasterOnly(v.Field(i), seen)
		}
	}
}

// TestPayloadRoundTripConformance walks every payload type registered with
// the wire codec, builds a fully-populated sample, and checks the decoded
// value is identical, but for the plan fields that stay on the master. A
// packed message's decoded value must not alias the bytes it came from: it
// is compared again after those bytes are overwritten.
func TestPayloadRoundTripConformance(t *testing.T) {
	reg := transport.RegisteredPayloads()
	if len(reg) < 14 {
		t.Fatalf("only %d payload types registered; expected the full cluster RPC surface", len(reg))
	}
	for _, typ := range reg {
		t.Run(typ.String(), func(t *testing.T) {
			seed := 0
			sample := reflect.New(typ).Elem()
			fillValue(t, sample, &seed, 0, map[reflect.Type]bool{})
			in := sample.Interface()
			b, err := transport.EncodePayload(in)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			out, err := transport.DecodePayload(b)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if reflect.TypeOf(out) != typ {
				t.Fatalf("decoded type %T, want %v", out, typ)
			}
			_, packed := in.(transport.Packer)
			if packed { // the plans it carries leave their master-only fields behind
				zeroMasterOnly(sample, map[uintptr]bool{})
				in = sample.Interface()
			}
			if d := deepDiff("", reflect.ValueOf(in), reflect.ValueOf(out)); d != "" {
				t.Errorf("round trip changed the payload at %s", d)
			}
			if packed {
				for i := range b {
					b[i] = 0xA5
				}
				if d := deepDiff("", reflect.ValueOf(in), reflect.ValueOf(out)); d != "" {
					t.Errorf("the decoded payload aliases its input, at %s", d)
				}
			}
		})
	}
}

// roundTripPayload sends v through the wire codec.
func roundTripPayload(t *testing.T, v any) (any, int) {
	t.Helper()
	b, err := transport.EncodePayload(v)
	if err != nil {
		t.Fatal(err)
	}
	out, err := transport.DecodePayload(b)
	if err != nil {
		t.Fatal(err)
	}
	return out, len(b)
}

// A message names each plan by its index in one plan section: a stem job
// whose tasks all run its plan ships the plan once, and a map-task batch
// ships the probe and build plans once each, however many tasks it holds.
// Decoding restores the sharing.
func TestStemJobPlanAliasingOverWire(t *testing.T) {
	p := &plan.PhysicalPlan{SQL: "SELECT 1", ScanLimit: 7, FactCols: []string{"a", "b"},
		Dims: []*plan.DimPlan{{Needed: []string{"k"}, Data: [][]types.Value{{types.NewString("dimension data")}}}}}
	job := stemJobMsg{
		Plan: p,
		Tasks: []plan.TaskSpec{
			{Plan: p, Ordinal: 0},
			{Plan: p, Ordinal: 1},
			{Plan: p, Ordinal: 2},
		},
		Batch: taskBatch{QueryID: "q1", TaskTimeout: 3 * time.Second},
	}
	out, n3 := roundTripPayload(t, job)
	got := out.(stemJobMsg)
	if got.Plan == nil || got.Plan.ScanLimit != 7 || got.Plan.SQL != "" {
		t.Fatalf("plan lost, or its master-only SQL shipped: %+v", got.Plan)
	}
	for i, task := range got.Tasks {
		if task.Plan != got.Plan {
			t.Errorf("task %d plan is not the job's plan", i)
		}
	}
	if got.Batch.TaskTimeout != 3*time.Second || got.Batch.QueryID != "q1" {
		t.Errorf("scalar fields lost: %+v", got)
	}
	// The plan's bytes do not grow with the task count.
	big := job
	big.Tasks = make([]plan.TaskSpec, 24)
	for i := range big.Tasks {
		big.Tasks[i] = plan.TaskSpec{Plan: p, Ordinal: i}
	}
	if _, n24 := roundTripPayload(t, big); n24 > n3+21*taskMinBytes+21*4 {
		t.Errorf("24-task job encodes to %d bytes vs %d for 3 tasks — the plan is being shipped per task", n24, n3)
	}

	// A map-task batch: build tasks then probe tasks of one repartition join.
	probe := &plan.PhysicalPlan{FactCols: []string{"uid"}, Dims: p.Dims}
	build := &plan.PhysicalPlan{FactCols: []string{"id"}}
	top := &plan.PhysicalPlan{Dims: p.Dims, Shuffle: &plan.ShuffleSpec{ProbePlan: probe, BuildPlan: build, Keys: 1}}
	batch := taskBatch{Exchange: "q1/shuffle", Sides: []string{shuffleSideBuild, shuffleSideBuild, shuffleSideProbe, shuffleSideProbe, shuffleSideProbe}}
	for i := range batch.Sides {
		tp := probe
		if i < 2 {
			tp = build
		}
		batch.Tasks = append(batch.Tasks, plan.TaskSpec{Plan: tp, Ordinal: i})
	}
	out, _ = roundTripPayload(t, batch)
	gb := out.(taskBatch)
	if gb.Tasks[0].Plan != gb.Tasks[1].Plan || gb.Tasks[2].Plan != gb.Tasks[4].Plan || gb.Tasks[1].Plan == gb.Tasks[2].Plan {
		t.Error("a batch's build and probe plans did not decode to one object each")
	}
	if gb.Tasks[2].Plan.Dims[0].Data[0][0].S != "dimension data" {
		t.Error("the probe plan's dimension data was lost")
	}
	// The reduce request carries the top plan; its probe sub-plan shares the
	// dimension, which therefore ships once.
	out, _ = roundTripPayload(t, shuffleReduceMsg{Plan: top})
	gr := out.(shuffleReduceMsg).Plan
	if gr.Shuffle.ProbePlan.Dims[0] != gr.Dims[0] || gr.Shuffle.BuildPlan == nil {
		t.Error("the reduce plan lost the sharing of its sub-plans' dimensions")
	}
}

// Every statement of the differential join stream plans, on the broadcast and
// on the repartition path, to a plan that crosses the wire intact: in the stem
// job that scatters it (or the reduce request that runs its shuffle), every
// field a receiver runs arrives equal and each task's plan is the job's.
func TestDifferentialStreamPlansRoundTrip(t *testing.T) {
	spec := workload.DefaultJoinSpec()
	spec.Specials = true
	// A fresh catalog per statement: the comparison zeroes the master-only
	// fields of what the plan points at, its table entries included.
	catalog := func() plan.MapCatalog {
		return plan.MapCatalog{
			spec.FactName: {Name: spec.FactName, Schema: workload.FactJoinSchema(spec.Specials), Version: 3,
				Partitions: []plan.PartitionMeta{{Path: "/hdfs/f/0", Rows: 1000, Bytes: 1 << 20, Gen: 1}, {Path: "/hdfs/f/1", Rows: 1000, Bytes: 1 << 20, Gen: 2}}},
			spec.DimName: {Name: spec.DimName, Schema: workload.DimJoinSchema(), Version: 4,
				Partitions: []plan.PartitionMeta{{Path: "/hdfs/d/0", Rows: 100, Bytes: 1 << 16, Gen: 5}}},
		}
	}
	opts := []plan.Options{{}, {BroadcastThreshold: 1, ShufflePartitions: 3, GroupShuffleRows: 1}}
	for i, sql := range workload.JoinQueries(spec.FactName, spec.DimName, 20250809, 520) {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.PlanWith(stmt, catalog(), opts[i%2])
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for _, d := range p.Dims { // what the master's loadDims ships
			d.Data = [][]types.Value{make([]types.Value, len(d.Needed))}
			for c := range d.Needed {
				d.Data[0][c] = sampleValue(i + c)
			}
		}
		var got *plan.PhysicalPlan
		if p.Shuffle != nil {
			out, _ := roundTripPayload(t, shuffleReduceMsg{Plan: p})
			got = out.(shuffleReduceMsg).Plan
		} else {
			out, _ := roundTripPayload(t, stemJobMsg{Plan: p, Tasks: p.Tasks()})
			job := out.(stemJobMsg)
			got = job.Plan
			for _, task := range job.Tasks {
				if task.Plan != got {
					t.Fatalf("%s: a task's plan decoded apart from the job's", sql)
				}
			}
		}
		zeroMasterOnly(reflect.ValueOf(p), map[uintptr]bool{})
		if !reflect.DeepEqual(p, got) {
			t.Fatalf("%s: the plan changed on the wire at %s", sql, deepDiff("", reflect.ValueOf(p), reflect.ValueOf(got)))
		}
	}
}

// routedShuffleMsgs runs LeafServer.routeShuffle over a small join side and a
// small group side with three partitions and one reducer, and returns the
// messages that reducer received.
func routedShuffleMsgs(t testing.TB) []shuffleMsg {
	fabric := transport.NewFabric(transport.NewTopology(), transport.Options{})
	var got []shuffleMsg
	fabric.Register("stem0", func(ctx context.Context, from string, payload any) (any, error) {
		got = append(got, payload.(shuffleMsg))
		return shuffleAck{}, nil
	})
	leaf := &LeafServer{Name: "leaf0", Fabric: fabric}
	route := &taskBatch{QueryID: "q000001", Exchange: "q000001/shuffle", Partitions: 3, Keys: 1, Reducers: []string{"stem0"}}
	rows := &exec.TaskResult{}
	groups := exec.NewGroups(1)
	for i := 0; i < 40; i++ {
		rows.Rows = append(rows.Rows, []types.Value{types.NewInt(int64(i % 7)), types.NewString(fmt.Sprintf("user-%d", i)), types.NewFloat(float64(i) / 3)})
		g := groups.Get([]types.Value{types.NewInt(int64(i % 5))})
		g.Cells[0].Update(types.NewInt(int64(i)), false)
	}
	for _, side := range []struct {
		name string
		res  *exec.TaskResult
	}{{shuffleSideProbe, rows}, {shuffleSideGroup, &exec.TaskResult{Groups: groups}}} {
		if _, err := leaf.routeShuffle(context.Background(), route, 0, side.name, side.res, &taskStatus{}); err != nil {
			t.Fatal(err)
		}
	}
	return got
}

// FuzzDecodeShuffle feeds hostile bytes to the shuffle message decoder: it
// must return a typed error, never panic, and never decode more parts, rows
// or groups than the bytes present can hold (four bytes per part, eight rows
// or groups per byte).
func FuzzDecodeShuffle(f *testing.F) {
	for _, m := range routedShuffleMsgs(f) {
		b, err := m.AppendPayload(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add(binary.AppendUvarint([]byte{0, 0, 0, 0, 0}, 1<<40))
	decode := unpack(readShuffleMsg)
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decode(data)
		if err != nil {
			if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		m := v.(shuffleMsg)
		rows, groups := 0, 0
		for _, p := range m.Parts {
			rows += len(p.Rows)
			groups += len(p.Groups)
		}
		if len(m.Parts) > len(data)/shufflePartMinBytes || rows > 8*len(data) || groups > 8*len(data) {
			t.Fatalf("%d parts, %d rows, %d groups decoded from %d bytes", len(m.Parts), rows, groups, len(data))
		}
		b, err := m.AppendPayload(nil)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		if again, err := decode(b); err != nil || len(again.(shuffleMsg).Parts) != len(m.Parts) {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
	})
}

// packedSamples returns one populated sample of every packed message type.
func packedSamples(t testing.TB) []transport.Packer {
	var out []transport.Packer
	for _, typ := range transport.RegisteredPayloads() {
		v := reflect.New(typ).Elem()
		if _, ok := v.Interface().(transport.Packer); !ok {
			continue
		}
		seed := 0
		fillValue(t, v, &seed, 0, map[reflect.Type]bool{})
		out = append(out, v.Interface().(transport.Packer))
	}
	return out
}

// FuzzDecodePayload feeds hostile bytes to the decoder of every packed tag
// (the first input byte picks the tag), seeded with every packed sample —
// the replies among them traced, each carrying a span tree — and a traced
// leaf reply as a stem receives it: a typed error, never a panic; counts
// are checked against the bytes present before anything is allocated, so a
// short input cannot claim a large message; and what decodes re-encodes to a
// message that decodes again.
func FuzzDecodePayload(f *testing.F) {
	var tags []byte
	for _, m := range packedSamples(f) {
		b, err := transport.EncodePayload(m)
		if err != nil {
			f.Fatal(err)
		}
		tags = append(tags, b[0])
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	traced := sampleSpan(1)
	traced.Child("leaf/leaf0").Child("scan").SetAttr("partition", "/hdfs/t/p0")
	b, err := transport.EncodePayload(batchReply{Tasks: []taskReply{{Status: taskStatus{OK: true}, Span: traced}, {}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		data = append([]byte{tags[int(data[0])%len(tags)]}, data[1:]...) // the input is the engine's: not modified in place
		v, err := transport.DecodePayload(data)
		if err != nil {
			if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		b, err := transport.EncodePayload(v)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", v, err)
		}
		if _, err := transport.DecodePayload(b); err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", v, err)
		}
	})
}

// A plan-bearing message decodes in about as many allocations as it has
// objects — no reflection, no type descriptors — whatever connection it
// arrives on: the repartition join's map-task batch, its reduce request and a
// group shuffle's batch each stay within a fixed budget.
func TestPackedPlanMessagesDecodeCheaply(t *testing.T) {
	spec := workload.DefaultJoinSpec()
	cat := plan.MapCatalog{
		spec.FactName: {Name: spec.FactName, Schema: workload.FactJoinSchema(spec.Specials),
			Partitions: []plan.PartitionMeta{{Path: "/hdfs/f/0"}, {Path: "/hdfs/f/1"}, {Path: "/hdfs/f/2"}, {Path: "/hdfs/f/3"}}},
		spec.DimName: {Name: spec.DimName, Schema: workload.DimJoinSchema(),
			Partitions: []plan.PartitionMeta{{Path: "/hdfs/d/0", Bytes: 1 << 20}, {Path: "/hdfs/d/1", Bytes: 1 << 20}}},
	}
	planOf := func(sql string) *plan.PhysicalPlan {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.PlanWith(stmt, cat, plan.Options{BroadcastThreshold: 1, GroupShuffleRows: -1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	join := planOf("SELECT users.cat, COUNT(*), SUM(orders.v) FROM orders JOIN users ON orders.k = users.k WHERE orders.v > 3 GROUP BY users.cat")
	if join.Shuffle == nil {
		t.Fatal("want a repartition join")
	}
	mapBatch := taskBatch{Exchange: "q1/shuffle", QueryID: "q1", Partitions: 4, Keys: 1, Reducers: []string{"stem0", "stem1"}}
	for _, side := range []struct {
		name string
		p    *plan.PhysicalPlan
	}{{shuffleSideBuild, join.Shuffle.BuildPlan}, {shuffleSideProbe, join.Shuffle.ProbePlan}} {
		for _, task := range side.p.Tasks() {
			task.Ordinal = len(mapBatch.Tasks)
			mapBatch.Tasks = append(mapBatch.Tasks, task)
			mapBatch.Sides = append(mapBatch.Sides, side.name)
		}
	}
	group := planOf("SELECT orders.grp, COUNT(*), SUM(orders.v) FROM orders WHERE orders.s != 'x' GROUP BY orders.grp")
	for _, tc := range []struct {
		name   string
		msg    any
		budget float64
	}{
		{"map-task batch", mapBatch, 80},
		{"reduce request", shuffleReduceMsg{Exchange: "q1/shuffle", QueryID: "q1", Plan: join, Partitions: []int{0, 2}, ProbeOrdinals: []int{2, 3, 4, 5}, BuildOrdinals: []int{0, 1}}, 100},
		{"scatter batch", taskBatch{QueryID: "q2", Tasks: group.Tasks()}, 60},
	} {
		b, err := transport.EncodePayload(tc.msg)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := transport.DecodePayload(b); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d bytes, %.0f allocations to decode", tc.name, len(b), allocs)
		if allocs > tc.budget {
			t.Errorf("%s decodes in %.0f allocations, want <= %.0f", tc.name, allocs, tc.budget)
		}
	}
}

// pinnedMessages are fixed packed messages with varied contents: every
// column layout, NULLs, a group with a float sum, an optional result, a
// failed task. Their bytes are the wire form of CodecVersion 13 (an
// untraced reply's span is one byte): a decoder may move, but these bytes
// may not change without a version bump.
func pinnedMessages() map[string]transport.Packer {
	g := exec.NewGroups(1)
	grp := g.Get([]types.Value{types.NewString("k")})
	grp.Cells[0].Update(types.NewFloat(2.5), false)
	return map[string]transport.Packer{
		"shuffleMsg": shuffleMsg{Exchange: "q1/shuffle", QueryID: "q1", Side: shuffleSideProbe, Ordinal: 3, Attempt: 1,
			Parts: []shufflePart{
				{Partition: 0, Size: 42, Rows: [][]types.Value{
					{types.NewInt(7), types.NewString("a"), types.NullValue()},
					{types.NewInt(-300), types.NewString(""), types.NewFloat(1.5)},
				}},
				{Partition: 2, Size: 9, Groups: []exec.Group{{Keys: []types.Value{types.NewString("k"), types.NewBool(true)},
					Cells: []exec.Cell{{Count: 2, SumI: 10, SumF: 0.5, Float: true, Min: types.NewInt(1), Max: types.NewInt(9)}}}}},
			}},
		"batchReply": batchReply{Tasks: []taskReply{
			{Status: taskStatus{OK: true, Leaf: "leaf0", SimTime: 1500, ScanSim: 900, DevBytes: sim.DeviceBytes{4096}, Rows: 1,
				TransferSim: []time.Duration{5}, TransferBytes: []int64{}},
				Result: &exec.TaskResult{Rows: [][]types.Value{{types.NewString("x")}, nil, {}},
					Stats: exec.ScanStats{BlocksTotal: 4, RowsScanned: 100, RowsEmitted: 1}}, Size: 64},
			{Status: taskStatus{Err: "boom", Leaf: "leaf1", Unreachable: true},
				Result: &exec.TaskResult{Groups: g}, Size: 1 << 20},
		}},
	}
}

func TestPinnedWireBytes(t *testing.T) {
	want := map[string]string{
		"shuffleMsg": "050a71312f73687566666c650271310570726f626506020300540300030100020700d4fe04000100610201010000000000000000000000000000f83f000412000202010400016b0300010102010a01000000000000e03f010100010101000109",
		"batchReply": "02030100056c65616630b817880e8040000000000200020a0101080000000000c801000200040102000104000178008001000004626f6f6d056c65616631000000000000000001000001000000000000000000000001020201010400016b010101000100000000000004400102000000000000000440020000000000000004408080800100",
	}
	for name, m := range pinnedMessages() {
		b, err := transport.EncodePayload(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != want[name] {
			t.Errorf("%s: wire bytes changed:\n got %s\nwant %s", name, got, want[name])
		}
		back, err := transport.DecodePayload(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again, err := transport.EncodePayload(back); err != nil || !bytes.Equal(again, b) {
			t.Errorf("%s: decoded message re-encodes differently (%v)", name, err)
		}
	}
}
