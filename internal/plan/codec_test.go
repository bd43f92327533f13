package plan

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/types"
)

// roundTrip encodes p in a section of its own and decodes it back.
func roundTrip(t testing.TB, p *PhysicalPlan) *PhysicalPlan {
	t.Helper()
	var pe Encoder
	pe.Add(p)
	b := binary.AppendUvarint(pe.AppendSection(nil), pe.Ref(p))
	r := types.NewReader(b)
	sec := ReadSection(&r)
	got := sec.Plan(&r)
	if r.Err() != nil || len(r.Rest()) != 0 {
		t.Fatalf("decode: %v (%d bytes left)", r.Err(), len(r.Rest()))
	}
	return got
}

// fillPlanValue sets every field reachable from v to deterministic non-zero
// data. A pointer to a struct type already being filled stays nil, so the
// recursive plan graph terminates; expressions and values get samples.
func fillPlanValue(v reflect.Value, seed *int, onPath map[reflect.Type]bool) {
	*seed++
	n := *seed
	switch v.Type() {
	case reflect.TypeOf((*sqlparser.Expr)(nil)).Elem():
		v.Set(reflect.ValueOf(&sqlparser.BinaryExpr{Op: sqlparser.OpGt,
			L: &sqlparser.ColumnRef{Parts: []string{"t", "c"}, Table: "t", Column: fmt.Sprintf("c%d", n)},
			R: &sqlparser.FuncCall{Name: "ABS", Args: []sqlparser.Expr{&sqlparser.NegExpr{X: &sqlparser.Literal{Value: types.NewFloat(float64(n))}}},
				Within: &sqlparser.ColumnRef{Parts: []string{"r"}}, WithinRecord: true, Star: true}}))
		return
	case reflect.TypeOf(types.Value{}):
		v.Set(reflect.ValueOf(types.NewString(fmt.Sprintf("v%d", n))))
		return
	case reflect.TypeOf(types.Schema{}):
		v.Set(reflect.ValueOf(*types.MustSchema(types.Field{Name: "a", Type: types.Int64})))
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.Uint8, reflect.Uint64:
		v.SetUint(uint64(n % 4))
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", n))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < 2; i++ {
			fillPlanValue(s.Index(i), seed, onPath)
		}
		v.Set(s)
	case reflect.Ptr:
		if onPath[v.Type().Elem()] {
			return
		}
		p := reflect.New(v.Type().Elem())
		fillPlanValue(p.Elem(), seed, onPath)
		v.Set(p)
	case reflect.Struct:
		onPath[v.Type()] = true
		defer delete(onPath, v.Type())
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillPlanValue(v.Field(i), seed, onPath)
			}
		}
	default:
		panic(fmt.Sprintf("no sample for %v", v.Type()))
	}
}

// compareCarried walks a plan and its decoded copy: a MasterOnly field must
// have arrived zero, every other field equal. It records each MasterOnly
// field it met in seen.
func compareCarried(t *testing.T, path string, want, got reflect.Value, seen map[string]bool) {
	t.Helper()
	switch want.Kind() {
	case reflect.Ptr:
		if want.IsNil() != got.IsNil() {
			t.Errorf("%s: nil %v, decoded nil %v", path, want.IsNil(), got.IsNil())
		} else if !want.IsNil() && want.Type().Elem().PkgPath() == "repro/internal/plan" {
			compareCarried(t, path, want.Elem(), got.Elem(), seen)
		} else if !reflect.DeepEqual(want.Interface(), got.Interface()) {
			t.Errorf("%s: decoded %v, want %v", path, got.Interface(), want.Interface())
		}
	case reflect.Slice:
		if want.Len() != got.Len() || want.IsNil() != got.IsNil() {
			t.Errorf("%s: %d elements (nil %v), decoded %d (nil %v)", path, want.Len(), want.IsNil(), got.Len(), got.IsNil())
			return
		}
		for i := 0; i < want.Len(); i++ {
			compareCarried(t, fmt.Sprintf("%s[%d]", path, i), want.Index(i), got.Index(i), seen)
		}
	case reflect.Struct:
		if want.Type().PkgPath() != "repro/internal/plan" {
			if !reflect.DeepEqual(want.Interface(), got.Interface()) {
				t.Errorf("%s: decoded %v, want %v", path, got.Interface(), want.Interface())
			}
			return
		}
		for i := 0; i < want.NumField(); i++ {
			f := want.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			key := want.Type().Name() + "." + f.Name
			if _, ok := MasterOnly[key]; ok {
				seen[key] = true
				if !got.Field(i).IsZero() {
					t.Errorf("%s.%s is master-only but crossed the wire", path, f.Name)
				}
				continue
			}
			compareCarried(t, path+"."+f.Name, want.Field(i), got.Field(i), seen)
		}
	default:
		if !reflect.DeepEqual(want.Interface(), got.Interface()) {
			t.Errorf("%s: decoded %v, want %v", path, got.Interface(), want.Interface())
		}
	}
}

// The plan codec carries exactly what receivers run: a plan with every
// exported field set decodes with each field equal, except the MasterOnly
// fields, which arrive zero. A field added to any plan type fails here until
// it is either encoded or listed, with its reason, in MasterOnly.
func TestPlanCodecCarriesExactlyWhatReceiversRun(t *testing.T) {
	p := &PhysicalPlan{}
	seed := 0
	fillPlanValue(reflect.ValueOf(p).Elem(), &seed, map[reflect.Type]bool{})
	// The filler leaves recursive pointers nil; give the shuffle its map
	// sub-plans so the references between plans are carried too.
	probe, build := &PhysicalPlan{}, &PhysicalPlan{}
	fillPlanValue(reflect.ValueOf(probe).Elem(), &seed, map[reflect.Type]bool{reflect.TypeOf(ShuffleSpec{}): true})
	fillPlanValue(reflect.ValueOf(build).Elem(), &seed, map[reflect.Type]bool{reflect.TypeOf(ShuffleSpec{}): true})
	p.Shuffle.ProbePlan, p.Shuffle.BuildPlan = probe, build
	seen := map[string]bool{}
	compareCarried(t, "plan", reflect.ValueOf(p), reflect.ValueOf(roundTrip(t, p)), seen)
	for key := range MasterOnly {
		if !seen[key] {
			t.Errorf("MasterOnly names %s, which no plan reaches", key)
		}
	}
}

// A message's plans keep their sharing across the wire: a shuffle plan and
// its probe sub-plan share their broadcast dimensions (shipped once), every
// plan its bound tables, and a plan referenced twice decodes to one object.
func TestPlanCodecSharesPointers(t *testing.T) {
	stmt, err := sqlparser.Parse("SELECT logs.url, users.city, COUNT(*) FROM logs JOIN users ON logs.uid = users.uid GROUP BY logs.url, users.city")
	if err != nil {
		t.Fatal(err)
	}
	p, err := PlanWith(stmt, testCatalog(), Options{BroadcastThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Shuffle == nil || p.Shuffle.ProbePlan == nil {
		t.Fatal("want a repartition join")
	}
	p.Shuffle.ProbePlan.Dims = []*DimPlan{{Table: p.A.Tables[0], Data: [][]types.Value{{types.NewString("x")}}}}
	p.Dims = p.Shuffle.ProbePlan.Dims

	var pe Encoder
	pe.Add(p)
	pe.Add(p.Shuffle.ProbePlan)
	one := len(pe.AppendSection(nil))
	b := pe.AppendSection(nil)
	b = binary.AppendUvarint(b, pe.Ref(p))
	b = binary.AppendUvarint(b, pe.Ref(p.Shuffle.ProbePlan))
	r := types.NewReader(b)
	sec := ReadSection(&r)
	got, probe := sec.Plan(&r), sec.Plan(&r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if got.Shuffle.ProbePlan != probe {
		t.Error("the probe plan referenced twice decoded to two objects")
	}
	if got.Dims[0] != probe.Dims[0] {
		t.Error("a dimension shared by two plans decoded twice")
	}
	if got.A.Tables[0] != probe.A.Tables[0] || got.Dims[0].Table != got.A.Tables[0] {
		t.Error("a bound table shared by plans and dimensions decoded more than once")
	}
	// Adding the probe plan again, directly, adds nothing to the section.
	pe.Add(p.Shuffle.ProbePlan)
	if len(pe.AppendSection(nil)) != one {
		t.Error("a plan added twice is encoded twice")
	}
}

// Corrupt sections fail with a typed error before they allocate: a count
// the bytes cannot hold, an index past its list, an expression nested past
// the bound.
func TestPlanCodecRejectsCorruptSections(t *testing.T) {
	good := func() []byte {
		var pe Encoder
		p := planSQL(t, "SELECT url FROM logs WHERE clicks > 10")
		pe.Add(p)
		return pe.AppendSection(nil)
	}()
	deep := &sqlparser.NotExpr{}
	x := deep
	for range maxExprDepth + 1 {
		next := &sqlparser.NotExpr{}
		x.X, x = next, next
	}
	trailing := append(append([]byte(nil), good...), 0)
	binary.BigEndian.PutUint32(trailing, uint32(len(trailing)-4))
	var pe Encoder
	pe.Add(&PhysicalPlan{GroupBy: []sqlparser.Expr{deep}})
	tooDeep := pe.AppendSection(nil)
	for name, b := range map[string][]byte{
		"empty":          nil,
		"truncated":      good[:len(good)-1],
		"trailing":       trailing,
		"huge length":    {0xff, 0xff, 0xff, 0xff},
		"huge count":     append([]byte{0, 0, 0, 6}, binary.AppendUvarint(nil, 1<<40)...),
		"table index":    {0, 0, 0, 7, 1, 1, 3, 0, 0, 0, 0},
		"too deep":       tooDeep,
		"unknown expr":   append([]byte{0, 0, 0, 15, 1, 1, 2, 1, 0, 1, 1, 1, 1, 1, 2}, 99, 1, 1, 0),
		"bad bool flags": {0, 0, 0, 4, 1, 1, 2, 7},
	} {
		r := types.NewReader(b)
		ReadSection(&r)
		if err := r.Err(); !errors.Is(err, types.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzDecodePlan feeds hostile bytes to the plan section decoder: it must
// return a typed error, never panic, and never decode more plans, tables or
// dimensions than the bytes present can hold; what decodes encodes again and
// decodes to the same section length.
func FuzzDecodePlan(f *testing.F) {
	for _, sql := range []string{
		"SELECT url, clicks FROM logs WHERE clicks > 10 AND (pos < 3 OR query CONTAINS 'x') LIMIT 5",
		"SELECT url, COUNT(*), SUM(score) FROM logs, users WHERE logs.uid = users.uid AND users.vip GROUP BY url HAVING COUNT(*) > 1",
		"SELECT query, COUNT(click.pos) WITHIN RECORD FROM logs WHERE NOT (url IS NULL) AND -clicks < 0",
	} {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			f.Fatal(err)
		}
		for _, opts := range []Options{{}, {BroadcastThreshold: -1, GroupShuffleRows: 1}} {
			p, err := PlanWith(stmt, testCatalog(), opts)
			if err != nil {
				f.Fatal(err)
			}
			var pe Encoder
			pe.Add(p)
			f.Add(pe.AppendSection(nil))
		}
	}
	f.Add([]byte{0, 0, 0, 3, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := types.NewReader(data)
		sec := ReadSection(&r)
		if err := r.Err(); err != nil {
			if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if len(sec.plans)*planMinBytes > len(data) {
			t.Fatalf("%d plans decoded from %d bytes", len(sec.plans), len(data))
		}
		var pe Encoder
		for i := range sec.plans {
			pe.Add(&sec.plans[i])
		}
		again := types.NewReader(pe.AppendSection(nil))
		if ReadSection(&again); again.Err() != nil || len(again.Rest()) != 0 {
			t.Fatalf("a decoded section does not re-encode: %v", again.Err())
		}
	})
}
