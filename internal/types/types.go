// Package types defines the scalar datatypes, values, schemas and rows shared
// by every layer of the Feisu engine: the columnar store, the SQL planner,
// the execution operators and the SmartIndex.
//
// Feisu stores data in columnar format and flattens nested (JSON) records
// into columns (paper §III-A), so the type system is deliberately small:
// 64-bit integers, 64-bit floats, booleans and strings, plus NULL.
package types

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type identifies a scalar datatype.
type Type uint8

// Supported scalar types.
const (
	// Null is the type of an untyped NULL literal.
	Null Type = iota
	// Int64 is a 64-bit signed integer.
	Int64
	// Float64 is a 64-bit IEEE-754 float.
	Float64
	// Bool is a boolean.
	Bool
	// String is a UTF-8 string.
	String
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Null:
		return "NULL"
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case Bool:
		return "BOOLEAN"
	case String:
		return "STRING"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseType maps a type name (case-insensitive) to a Type.
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(s) {
	case "BIGINT", "INT", "INT64", "INTEGER", "LONG":
		return Int64, nil
	case "DOUBLE", "FLOAT", "FLOAT64", "REAL":
		return Float64, nil
	case "BOOLEAN", "BOOL":
		return Bool, nil
	case "STRING", "VARCHAR", "TEXT":
		return String, nil
	default:
		return Null, fmt.Errorf("types: unknown type name %q", s)
	}
}

// Numeric reports whether the type is a numeric type.
func (t Type) Numeric() bool { return t == Int64 || t == Float64 }

// Value is a single scalar value. The zero Value is NULL.
//
// Value is a compact tagged union: exactly one of the payload fields is
// meaningful, selected by T. Strings are held by reference; everything else
// is inline, so Value is cheap to copy.
type Value struct {
	T Type
	I int64
	F float64
	S string
	B bool
}

// NewInt returns an Int64 value.
func NewInt(v int64) Value { return Value{T: Int64, I: v} }

// NewFloat returns a Float64 value.
func NewFloat(v float64) Value { return Value{T: Float64, F: v} }

// NewBool returns a Bool value.
func NewBool(v bool) Value { return Value{T: Bool, B: v} }

// NewString returns a String value.
func NewString(v string) Value { return Value{T: String, S: v} }

// NullValue is the NULL value.
func NullValue() Value { return Value{} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.T == Null }

// AsFloat converts a numeric value to float64. It panics on non-numeric
// types; callers must check Numeric() first.
func (v Value) AsFloat() float64 {
	switch v.T {
	case Int64:
		return float64(v.I)
	case Float64:
		return v.F
	default:
		panic(fmt.Sprintf("types: AsFloat on %s", v.T))
	}
}

// String renders the value for display and for stable hashing of predicate
// atoms (SmartIndex keys embed the rendered value).
func (v Value) String() string {
	var buf [32]byte
	return string(v.AppendString(buf[:0]))
}

// AppendString appends String() to dst.
func (v Value) AppendString(dst []byte) []byte {
	switch v.T {
	case Null:
		return append(dst, "NULL"...)
	case Int64:
		return strconv.AppendInt(dst, v.I, 10)
	case Float64:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case Bool:
		return strconv.AppendBool(dst, v.B)
	case String:
		return strconv.AppendQuote(dst, v.S)
	default:
		return fmt.Appendf(dst, "Value(%d)", uint8(v.T))
	}
}

// Compare is the one order of values: every kernel, statistic, aggregate,
// sort and index follows it. NULL sorts below everything and equals NULL.
// Numbers compare across BIGINT and DOUBLE exactly: floats by cmp.Compare,
// so NaN equals NaN and sorts below every other number and -0 equals 0, and
// a BIGINT against a DOUBLE is never rounded. false sorts below true, and
// strings compare by bytes. Comparing other types is an error.
func Compare(a, b Value) (int, error) {
	switch {
	case a.T == Null || b.T == Null:
		return cmp.Compare(a.T, b.T), nil // Null is the lowest Type
	case a.T == Float64 && b.T == Int64:
		return -compareIntFloat(b.I, a.F), nil
	case a.T == Int64 && b.T == Float64:
		return compareIntFloat(a.I, b.F), nil
	case a.T != b.T:
		return 0, fmt.Errorf("types: cannot compare %s with %s", a.T, b.T)
	}
	switch a.T {
	case Int64:
		return cmp.Compare(a.I, b.I), nil
	case Float64:
		return cmp.Compare(a.F, b.F), nil
	case Bool:
		return cmp.Compare(boolRank(a.B), boolRank(b.B)), nil
	case String:
		return strings.Compare(a.S, b.S), nil
	default:
		return 0, fmt.Errorf("types: cannot compare %s values", a.T)
	}
}

// compareIntFloat compares i with f exactly. Past ±2^53 a float64 does not
// hold every integer, so i is never converted: f is split into its integral
// part, which fits int64 once f is in range, and its fraction.
func compareIntFloat(i int64, f float64) int {
	switch {
	case f != f, f < -1<<63:
		return 1 // NaN sorts below every number
	case f >= 1<<63:
		return -1
	}
	t := math.Trunc(f)
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmp.Compare(t, f) // i == t: f's fraction decides
}

func boolRank(b bool) int {
	if b {
		return 1
	}
	return 0
}

// As returns v as a value of type t when t holds it exactly and Go's own
// operators then order it against t's values as Compare does: a value of
// type t, an integral DOUBLE in int64 range as that BIGINT, or a BIGINT that
// converts to a DOUBLE and back unchanged as that DOUBLE. NULL and NaN hold
// for no type: == and < do not order a NaN, and NULL matches no comparison.
func (v Value) As(t Type) (Value, bool) {
	switch {
	case v.T == Float64 && v.F != v.F, v.T == Null:
		return Value{}, false
	case v.T == t:
		return v, true
	case v.T == Float64 && t == Int64 && v.F >= -1<<63 && v.F < 1<<63 && v.F == math.Trunc(v.F):
		return NewInt(int64(v.F)), true
	case v.T == Int64 && t == Float64 && float64(v.I) < 1<<63 && int64(float64(v.I)) == v.I:
		return NewFloat(float64(v.I)), true
	}
	return Value{}, false
}

// Equal reports whether two values are equal under Compare semantics,
// treating NULL == NULL as true (useful for grouping keys).
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Coerce converts v to the target type when a lossless or conventional
// conversion exists (int<->float, string parsing is NOT performed here).
func Coerce(v Value, target Type) (Value, error) {
	if v.T == target || v.T == Null {
		return v, nil
	}
	switch {
	case v.T == Int64 && target == Float64:
		return NewFloat(float64(v.I)), nil
	case v.T == Float64 && target == Int64:
		return NewInt(int64(v.F)), nil
	default:
		return Value{}, fmt.Errorf("types: cannot coerce %s to %s", v.T, target)
	}
}

// Field describes one column of a schema. Flattened nested fields keep their
// dotted JSON path as the name (e.g. "click.pos"). Repeated marks columns
// flattened from JSON arrays; they carry record offsets in the column store
// and support WITHIN-record aggregation.
type Field struct {
	Name     string
	Type     Type
	Repeated bool
}

// Schema is an ordered list of fields.
type Schema struct {
	Fields []Field
	byName map[string]int
}

// NewSchema builds a schema and its name index. Duplicate names are an error.
func NewSchema(fields ...Field) (*Schema, error) {
	s := &Schema{Fields: fields, byName: make(map[string]int, len(fields))}
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("types: field %d has empty name", i)
		}
		if _, dup := s.byName[f.Name]; dup {
			return nil, fmt.Errorf("types: duplicate field name %q", f.Name)
		}
		s.byName[f.Name] = i
	}
	return s, nil
}

// AppendSchema appends the field list — a count, then per field its name,
// type byte and repeated flag; the name index is derived state. It is the
// schema's wire form and the head of a partition file's footer.
func AppendSchema(dst []byte, s *Schema) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s.Fields)))
	for _, f := range s.Fields {
		dst = append(AppendString(dst, f.Name), byte(f.Type))
		dst = AppendBool(dst, f.Repeated)
	}
	return dst
}

// Schema reads a schema written by AppendSchema, rebuilding the name index.
func (r *Reader) Schema() *Schema {
	fields := make([]Field, r.Len(3)) // name length, type, flag
	for i := range fields {
		fields[i].Name, fields[i].Type, fields[i].Repeated = r.Str(), Type(r.Byte()), r.Bool()
		if fields[i].Type > String {
			r.Fail("bad schema field type")
		}
	}
	if r.err != nil {
		return nil
	}
	s, err := NewSchema(fields...)
	if err != nil {
		r.Fail("bad schema")
	}
	return s
}

// GobEncode writes the schema with AppendSchema. Without it, gob would
// silently drop the unexported byName map and a schema shipped over the wire
// transport could not resolve columns.
func (s *Schema) GobEncode() ([]byte, error) { return AppendSchema(nil, s), nil }

// GobDecode reads a schema written by GobEncode.
func (s *Schema) GobDecode(b []byte) error {
	ns, err := ReadAll(b, (*Reader).Schema)
	if err == nil {
		*s = *ns
	}
	return err
}

// MustSchema is NewSchema that panics on error; for tests and literals.
func MustSchema(fields ...Field) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// Index returns the ordinal of the named field, or -1.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Field returns the field with the given name.
func (s *Schema) Field(name string) (Field, bool) {
	i := s.Index(name)
	if i < 0 {
		return Field{}, false
	}
	return s.Fields[i], true
}

// Len returns the number of fields.
func (s *Schema) Len() int { return len(s.Fields) }

// Project returns a new schema containing the named fields in order.
func (s *Schema) Project(names ...string) (*Schema, error) {
	fields := make([]Field, 0, len(names))
	for _, n := range names {
		f, ok := s.Field(n)
		if !ok {
			return nil, fmt.Errorf("types: unknown field %q", n)
		}
		fields = append(fields, f)
	}
	return NewSchema(fields...)
}

// String renders the schema as "name TYPE, ...".
func (s *Schema) String() string {
	var b strings.Builder
	for i, f := range s.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Name)
		b.WriteByte(' ')
		b.WriteString(f.Type.String())
		if f.Repeated {
			b.WriteString(" REPEATED")
		}
	}
	return b.String()
}

// Row is one tuple of values, positionally aligned with a schema.
type Row []Value
