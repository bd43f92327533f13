// Package types defines the scalar datatypes, values, schemas and rows shared
// by every layer of the Feisu engine: the columnar store, the SQL planner,
// the execution operators and the SmartIndex.
//
// Feisu stores data in columnar format and flattens nested (JSON) records
// into columns (paper §III-A), so the type system is deliberately small:
// 64-bit integers, 64-bit floats, booleans and strings, plus NULL.
package types

import (
	"encoding/binary"
	"fmt"
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

// Compare compares two values. NULLs compare less than everything and equal
// to each other (total order for sorting). Numeric types compare across
// Int64/Float64. Comparing incompatible non-null types returns an error.
func Compare(a, b Value) (int, error) {
	if a.T == Null || b.T == Null {
		switch {
		case a.T == Null && b.T == Null:
			return 0, nil
		case a.T == Null:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if a.T.Numeric() && b.T.Numeric() {
		if a.T == Int64 && b.T == Int64 {
			switch {
			case a.I < b.I:
				return -1, nil
			case a.I > b.I:
				return 1, nil
			default:
				return 0, nil
			}
		}
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.T != b.T {
		return 0, fmt.Errorf("types: cannot compare %s with %s", a.T, b.T)
	}
	switch a.T {
	case Bool:
		switch {
		case !a.B && b.B:
			return -1, nil
		case a.B && !b.B:
			return 1, nil
		default:
			return 0, nil
		}
	case String:
		return strings.Compare(a.S, b.S), nil
	default:
		return 0, fmt.Errorf("types: cannot compare %s values", a.T)
	}
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
