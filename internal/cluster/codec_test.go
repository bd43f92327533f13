package cluster

// Payload round-trip conformance: every registered cluster RPC payload type
// must survive the wire codec with its content intact. Samples are built
// reflectively with every exported field populated, so a field that gob
// silently drops (unexported, unsupported) fails the DeepEqual — before it
// becomes a live wire bug. The walk also rejects unexported fields outright
// unless the type provides its own GobEncoder.

import (
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/transport"
	"repro/internal/types"
)

var gobEncoderT = reflect.TypeOf((*gob.GobEncoder)(nil)).Elem()

// fillValue populates v with deterministic non-zero data. Interface fields
// are always given a leaf value regardless of depth — a nil interface
// element inside a slice is not encodable. onPath tracks struct types on
// the current fill path: the plan graph is recursive by TYPE (a shuffle
// plan's map sub-plans are plans), so a pointer re-entering a type already
// being filled stays nil, exactly as real plans terminate.
func fillValue(t *testing.T, v reflect.Value, seed *int, depth int, onPath map[reflect.Type]bool) {
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

func fillStruct(t *testing.T, v reflect.Value, seed *int, depth int, onPath map[reflect.Type]bool) {
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

// deepDiff locates the first differing path between two equal-typed values,
// for actionable failure messages.
func deepDiff(path string, a, b reflect.Value) string {
	if a.Kind() != b.Kind() {
		return fmt.Sprintf("%s: kind %v vs %v", path, a.Kind(), b.Kind())
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

// TestPayloadRoundTripConformance walks every payload type registered with
// the wire codec, builds a fully-populated sample, and checks the decoded
// value is identical.
func TestPayloadRoundTripConformance(t *testing.T) {
	reg := transport.RegisteredPayloads()
	if len(reg) < 15 {
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
			if !reflect.DeepEqual(in, out) {
				t.Errorf("round trip changed the payload at %s", deepDiff("", reflect.ValueOf(in), reflect.ValueOf(out)))
			}
		})
	}
}

// A stem job's tasks all point at the job's plan; the wire form must ship
// the plan once and relink the pointers on receipt (gob alone would ship one
// copy per task — including the broadcast dimension data).
func TestStemJobPlanAliasingOverWire(t *testing.T) {
	p := &plan.PhysicalPlan{SQL: "SELECT 1", Fingerprint: "fp"}
	job := stemJobMsg{
		Plan: p,
		Tasks: []plan.TaskSpec{
			{Plan: p, Ordinal: 0},
			{Plan: p, Ordinal: 1},
			{Plan: p, Ordinal: 2},
		},
		QueryID:     "q1",
		TaskTimeout: 3 * time.Second,
	}
	b, err := transport.EncodePayload(job.wire())
	if err != nil {
		t.Fatal(err)
	}
	out, err := transport.DecodePayload(b)
	if err != nil {
		t.Fatal(err)
	}
	got := out.(wireStemJob).job()
	if got.Plan == nil || got.Plan.SQL != "SELECT 1" {
		t.Fatalf("plan lost: %+v", got.Plan)
	}
	for i, task := range got.Tasks {
		if task.Plan != got.Plan {
			t.Errorf("task %d plan not relinked to the shared plan", i)
		}
	}
	if got.TaskTimeout != 3*time.Second || got.QueryID != "q1" {
		t.Errorf("scalar fields lost: %+v", got)
	}

	// The wire size must not grow linearly in the plan: ~constant plan
	// bytes regardless of task count.
	big := job
	big.Tasks = make([]plan.TaskSpec, 24)
	for i := range big.Tasks {
		big.Tasks[i] = plan.TaskSpec{Plan: p, Ordinal: i}
	}
	bb, err := transport.EncodePayload(big.wire())
	if err != nil {
		t.Fatal(err)
	}
	if len(bb) > len(b)*12 {
		t.Errorf("24-task job encodes to %d bytes vs %d for 3 tasks — plan is being duplicated per task", len(bb), len(b))
	}
}
