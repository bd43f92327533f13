package types

import (
	"bytes"
	"encoding/gob"
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		Null: "NULL", Int64: "BIGINT", Float64: "DOUBLE", Bool: "BOOLEAN", String: "STRING",
	}
	for ty, want := range cases {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ty, got, want)
		}
	}
	if got := Type(99).String(); got != "Type(99)" {
		t.Errorf("unknown type = %q", got)
	}
}

func TestParseType(t *testing.T) {
	ok := map[string]Type{
		"bigint": Int64, "INT": Int64, "integer": Int64, "long": Int64,
		"double": Float64, "FLOAT": Float64, "real": Float64,
		"bool": Bool, "BOOLEAN": Bool,
		"string": String, "varchar": String, "TEXT": String,
	}
	for s, want := range ok {
		got, err := ParseType(s)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("ParseType(blob) should fail")
	}
}

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(42), "42"},
		{NewInt(-7), "-7"},
		{NewFloat(1.5), "1.5"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{NewString("a b"), `"a b"`},
		{NullValue(), "NULL"},
	}
	cases = append(cases, struct {
		v    Value
		want string
	}{Value{T: Type(99)}, "Value(99)"})
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
		// AppendString is String's append form, byte for byte.
		if got := string(c.v.AppendString([]byte("x="))); got != "x="+c.want {
			t.Errorf("%#v.AppendString = %q, want %q after the prefix", c.v, got, c.want)
		}
	}
}

func TestValueIsNullAndNumeric(t *testing.T) {
	if !NullValue().IsNull() {
		t.Error("NullValue should be null")
	}
	if NewInt(0).IsNull() {
		t.Error("NewInt(0) should not be null")
	}
	if !Int64.Numeric() || !Float64.Numeric() {
		t.Error("int64/float64 should be numeric")
	}
	if Bool.Numeric() || String.Numeric() || Null.Numeric() {
		t.Error("bool/string/null should not be numeric")
	}
}

func TestAsFloat(t *testing.T) {
	if got := NewInt(3).AsFloat(); got != 3.0 {
		t.Errorf("AsFloat int = %v", got)
	}
	if got := NewFloat(2.5).AsFloat(); got != 2.5 {
		t.Errorf("AsFloat float = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("AsFloat on string should panic")
		}
	}()
	NewString("x").AsFloat()
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(1.5), NewInt(1), 1},
		{NewFloat(2.0), NewInt(2), 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
		{NullValue(), NewInt(1), -1},
		{NewInt(1), NullValue(), 1},
		{NullValue(), NullValue(), 0},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil {
			t.Errorf("Compare(%v,%v) error: %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareIncompatible(t *testing.T) {
	if _, err := Compare(NewString("a"), NewInt(1)); err == nil {
		t.Error("string vs int should fail")
	}
	if _, err := Compare(NewBool(true), NewFloat(1)); err == nil {
		t.Error("bool vs float should fail")
	}
}

func TestEqual(t *testing.T) {
	if !Equal(NullValue(), NullValue()) {
		t.Error("NULL should Equal NULL for grouping")
	}
	if !Equal(NewInt(2), NewFloat(2)) {
		t.Error("2 should equal 2.0")
	}
	if Equal(NewInt(2), NewString("2")) {
		t.Error("2 should not equal \"2\"")
	}
}

func TestCoerce(t *testing.T) {
	v, err := Coerce(NewInt(3), Float64)
	if err != nil || v.T != Float64 || v.F != 3.0 {
		t.Errorf("Coerce int->float = %v, %v", v, err)
	}
	v, err = Coerce(NewFloat(3.9), Int64)
	if err != nil || v.T != Int64 || v.I != 3 {
		t.Errorf("Coerce float->int = %v, %v", v, err)
	}
	v, err = Coerce(NullValue(), Int64)
	if err != nil || !v.IsNull() {
		t.Errorf("Coerce null = %v, %v", v, err)
	}
	if _, err = Coerce(NewString("x"), Int64); err == nil {
		t.Error("Coerce string->int should fail")
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		c1, _ := Compare(NewInt(a), NewInt(b))
		c2, _ := Compare(NewInt(b), NewInt(a))
		return c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitivityProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		va, vb, vc := NewFloat(a), NewFloat(b), NewFloat(c)
		ab, _ := Compare(va, vb)
		bc, _ := Compare(vb, vc)
		ac, _ := Compare(va, vc)
		if ab <= 0 && bc <= 0 {
			return ac <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		v := NewString(s)
		return v.T == String && v.S == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewSchema(t *testing.T) {
	s, err := NewSchema(Field{Name: "a", Type: Int64}, Field{Name: "b", Type: String})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Index("a") != 0 || s.Index("b") != 1 || s.Index("c") != -1 {
		t.Error("Index lookup wrong")
	}
	f, ok := s.Field("b")
	if !ok || f.Type != String {
		t.Error("Field lookup wrong")
	}
	if _, ok := s.Field("zzz"); ok {
		t.Error("missing field should not be found")
	}
}

func TestNewSchemaErrors(t *testing.T) {
	if _, err := NewSchema(Field{Name: "a", Type: Int64}, Field{Name: "a", Type: String}); err == nil {
		t.Error("duplicate names should fail")
	}
	if _, err := NewSchema(Field{Name: "", Type: Int64}); err == nil {
		t.Error("empty name should fail")
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema should panic on duplicate")
		}
	}()
	MustSchema(Field{Name: "a", Type: Int64}, Field{Name: "a", Type: Int64})
}

func TestSchemaProject(t *testing.T) {
	s := MustSchema(
		Field{Name: "a", Type: Int64},
		Field{Name: "b", Type: String},
		Field{Name: "c", Type: Float64},
	)
	p, err := s.Project("c", "a")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || p.Fields[0].Name != "c" || p.Fields[1].Name != "a" {
		t.Errorf("Project = %v", p.Fields)
	}
	if _, err := s.Project("missing"); err == nil {
		t.Error("projecting missing field should fail")
	}
}

func TestSchemaString(t *testing.T) {
	s := MustSchema(
		Field{Name: "a", Type: Int64},
		Field{Name: "tags", Type: String, Repeated: true},
	)
	want := "a BIGINT, tags STRING REPEATED"
	if got := s.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestSchemaGobRoundTrip(t *testing.T) {
	s := MustSchema(
		Field{Name: "a", Type: Int64},
		Field{Name: "click.pos", Type: String, Repeated: true},
		Field{Name: "b", Type: Float64},
	)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	var got *Schema
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Fields) != 3 || got.Fields[1].Name != "click.pos" || !got.Fields[1].Repeated {
		t.Fatalf("fields lost: %+v", got.Fields)
	}
	// The derived name index must be rebuilt, not silently dropped.
	for i, f := range s.Fields {
		if got.Index(f.Name) != i {
			t.Errorf("Index(%q) = %d, want %d", f.Name, got.Index(f.Name), i)
		}
	}
	if got.Index("missing") != -1 {
		t.Error("unknown column resolved")
	}
}
