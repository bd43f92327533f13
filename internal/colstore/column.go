// Package colstore implements Feisu's columnar block format (paper §III-A):
// tables are split into partitions; each partition file holds a sequence of
// row-group blocks; each block stores one compressed chunk per column plus
// min/max statistics. Nested JSON records are flattened into columns, and
// repeated (array) fields keep per-record offsets so WITHIN-record
// aggregation can reconstruct record boundaries.
package colstore

import (
	"fmt"

	"repro/internal/bitmap"
	"repro/internal/bloom"
	"repro/internal/types"
)

// Column is the in-memory representation of one column of a block: a typed
// vector with an optional null bitmap, plus record offsets when the column
// is repeated.
type Column struct {
	Type types.Type
	// Nulls marks NULL positions; nil means no NULLs. A set bit means the
	// value at that index is NULL.
	Nulls *bitmap.Bitmap
	// Exactly one of the value slices is used, selected by Type.
	Ints   []int64
	Floats []float64
	Bools  []bool
	Strs   []string
	// Offsets is non-nil only for repeated columns: Offsets[r] .. Offsets[r+1]
	// is the half-open range of flattened values belonging to record r.
	// len(Offsets) == numRecords+1.
	Offsets []int32
}

// NewColumn returns an empty column of the given type.
func NewColumn(t types.Type) *Column { return &Column{Type: t} }

// Len returns the number of values in the column (flattened length for
// repeated columns).
func (c *Column) Len() int {
	switch c.Type {
	case types.Int64:
		return len(c.Ints)
	case types.Float64:
		return len(c.Floats)
	case types.Bool:
		return len(c.Bools)
	case types.String:
		return len(c.Strs)
	default:
		return 0
	}
}

// IsNull reports whether the value at index i is NULL.
func (c *Column) IsNull(i int) bool { return c.Nulls != nil && c.Nulls.Get(i) }

// Value returns the value at index i as a types.Value.
func (c *Column) Value(i int) types.Value {
	if c.IsNull(i) {
		return types.NullValue()
	}
	switch c.Type {
	case types.Int64:
		return types.NewInt(c.Ints[i])
	case types.Float64:
		return types.NewFloat(c.Floats[i])
	case types.Bool:
		return types.NewBool(c.Bools[i])
	case types.String:
		return types.NewString(c.Strs[i])
	default:
		return types.NullValue()
	}
}

// Append adds a value, extending the null bitmap lazily. Appending a value
// of the wrong type is an error.
func (c *Column) Append(v types.Value) error {
	if v.IsNull() {
		c.appendZero()
		if c.Nulls == nil {
			c.Nulls = bitmap.New(0)
		}
		c.ensureNullLen()
		c.Nulls.Set(c.Len() - 1)
		return nil
	}
	coerced, err := types.Coerce(v, c.Type)
	if err != nil {
		return fmt.Errorf("colstore: append %s to %s column: %w", v.T, c.Type, err)
	}
	switch c.Type {
	case types.Int64:
		c.Ints = append(c.Ints, coerced.I)
	case types.Float64:
		c.Floats = append(c.Floats, coerced.F)
	case types.Bool:
		c.Bools = append(c.Bools, coerced.B)
	case types.String:
		c.Strs = append(c.Strs, coerced.S)
	default:
		return fmt.Errorf("colstore: append to column of type %s", c.Type)
	}
	if c.Nulls != nil {
		c.ensureNullLen()
	}
	return nil
}

func (c *Column) appendZero() {
	switch c.Type {
	case types.Int64:
		c.Ints = append(c.Ints, 0)
	case types.Float64:
		c.Floats = append(c.Floats, 0)
	case types.Bool:
		c.Bools = append(c.Bools, false)
	case types.String:
		c.Strs = append(c.Strs, "")
	}
}

// ensureNullLen grows the null bitmap to match the value count. bitmap has a
// fixed length, so rebuild when it lags (amortized by doubling).
func (c *Column) ensureNullLen() {
	n := c.Len()
	if c.Nulls.Len() >= n {
		return
	}
	grown := bitmap.New(n * 2)
	c.Nulls.ForEachSet(func(i int) { grown.Set(i) })
	c.Nulls = grown
}

// finishNulls trims the lazily grown null bitmap to exactly n bits, or drops
// it entirely when no value is NULL.
func (c *Column) finishNulls(n int) {
	if c.Nulls == nil {
		return
	}
	trimmed := bitmap.New(n)
	any := false
	c.Nulls.ForEachSet(func(i int) {
		if i < n {
			trimmed.Set(i)
			any = true
		}
	})
	if !any {
		c.Nulls = nil
		return
	}
	c.Nulls = trimmed
}

// Stats summarises one column chunk for block pruning: min/max over
// non-null values, the null count, and a bloom filter over the chunk's
// values — the "range bloom" metadata of the paper's index schema (Fig. 6).
// The range answers ordered predicates; the bloom proves equality
// predicates all-false when the value is certainly absent.
type Stats struct {
	Min, Max  types.Value
	NullCount int
	Bloom     *bloom.Filter
}

// BloomKey canonicalizes a value for bloom membership so that values equal
// under types.Compare share a key (2 and 2.0 both render "2").
func BloomKey(v types.Value) []byte { return v.AppendString(nil) }

// ComputeStats scans the column and returns its stats.
func (c *Column) ComputeStats() Stats {
	var st Stats
	n := c.Len()
	if n > 0 {
		st.Bloom = bloom.New(n, 0.01)
	}
	for i := 0; i < n; i++ {
		if c.IsNull(i) {
			st.NullCount++
			continue
		}
		v := c.Value(i)
		st.Bloom.Add(BloomKey(v))
		if st.Min.IsNull() {
			st.Min, st.Max = v, v
			continue
		}
		if cmp, err := types.Compare(v, st.Min); err == nil && cmp < 0 {
			st.Min = v
		}
		if cmp, err := types.Compare(v, st.Max); err == nil && cmp > 0 {
			st.Max = v
		}
	}
	return st
}
