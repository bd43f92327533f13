package exec

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// Cell is the mergeable partial state of one aggregate: it carries enough
// for COUNT, SUM, MIN, MAX and AVG simultaneously, so leaves compute
// partials once, stems merge them, and the master finalizes (paper Fig. 3's
// bottom-up summarization).
type Cell struct {
	Count int64
	SumI  int64
	SumF  float64
	Float bool // sum has been promoted to float
	Min   types.Value
	Max   types.Value
}

// Update folds one input value. star marks COUNT(*) semantics: every row
// counts regardless of v.
func (c *Cell) Update(v types.Value, star bool) {
	if star {
		c.Count++
		return
	}
	if v.IsNull() {
		return
	}
	c.Count++
	switch v.T {
	case types.Int64:
		if c.Float {
			c.SumF += float64(v.I)
		} else {
			c.SumI += v.I
		}
	case types.Float64:
		if !c.Float {
			c.Float = true
			c.SumF = float64(c.SumI)
			c.SumI = 0
		}
		c.SumF += v.F
	}
	if c.Min.IsNull() {
		c.Min, c.Max = v, v
		return
	}
	if cmp, err := types.Compare(v, c.Min); err == nil && cmp < 0 {
		c.Min = v
	}
	if cmp, err := types.Compare(v, c.Max); err == nil && cmp > 0 {
		c.Max = v
	}
}

// Merge folds another partial cell into c.
func (c *Cell) Merge(o Cell) {
	c.Count += o.Count
	switch {
	case c.Float || o.Float:
		if !c.Float {
			c.SumF = float64(c.SumI)
			c.SumI = 0
			c.Float = true
		}
		c.SumF += o.SumF + float64(o.SumI)
	default:
		c.SumI += o.SumI
	}
	if !o.Min.IsNull() {
		if c.Min.IsNull() {
			c.Min, c.Max = o.Min, o.Max
		} else {
			if cmp, err := types.Compare(o.Min, c.Min); err == nil && cmp < 0 {
				c.Min = o.Min
			}
			if cmp, err := types.Compare(o.Max, c.Max); err == nil && cmp > 0 {
				c.Max = o.Max
			}
		}
	}
}

// Final produces the aggregate's value.
func (c *Cell) Final(fn string) (types.Value, error) {
	switch fn {
	case "COUNT":
		return types.NewInt(c.Count), nil
	case "SUM":
		if c.Count == 0 {
			return types.NullValue(), nil
		}
		if c.Float {
			return types.NewFloat(c.SumF), nil
		}
		return types.NewInt(c.SumI), nil
	case "AVG":
		if c.Count == 0 {
			return types.NullValue(), nil
		}
		sum := c.SumF
		if !c.Float {
			sum = float64(c.SumI)
		}
		return types.NewFloat(sum / float64(c.Count)), nil
	case "MIN":
		return c.Min, nil
	case "MAX":
		return c.Max, nil
	default:
		return types.Value{}, fmt.Errorf("exec: unknown aggregate %q", fn)
	}
}

// Group is one grouping key with its aggregate cells (aligned with the
// plan's AggSpecs).
type Group struct {
	Keys  []types.Value
	Cells []Cell
}

// mergeCells folds another partial state of the same group into g.
func (g *Group) mergeCells(o *Group) {
	for i := range g.Cells {
		g.Cells[i].Merge(o.Cells[i])
	}
}

// Groups is a partial aggregation result, keyed by encoded group key.
type Groups struct {
	NumAggs int
	M       map[string]*Group
}

// NewGroups returns an empty partial result for numAggs aggregate specs.
func NewGroups(numAggs int) *Groups {
	return &Groups{NumAggs: numAggs, M: make(map[string]*Group)}
}

// GroupKey encodes key values into a map key. Each element is
// self-delimiting (type byte, uvarint length, rendered value), so the
// encoding is injective: no value containing a separator-like byte can make
// two distinct key tuples collide (a NUL-joined encoding merged groups like
// ["a\x00","b"] and ["a","\x00b"]).
func GroupKey(keys []types.Value) string {
	if len(keys) == 0 {
		return ""
	}
	return string(AppendGroupKey(make([]byte, 0, 16*len(keys)), keys))
}

// AppendGroupKey appends GroupKey(keys) to dst, so that a caller probing a
// map or deriving many keys renders into one reused buffer.
func AppendGroupKey(dst []byte, keys []types.Value) []byte {
	for i := range keys {
		k := &keys[i]
		dst = append(dst, byte(k.T), 0)
		at := len(dst)
		switch k.T {
		case types.Null:
			dst = append(dst, "NULL"...)
		case types.Int64:
			dst = strconv.AppendInt(dst, k.I, 10)
		case types.Float64:
			dst = strconv.AppendFloat(dst, k.F, 'g', -1, 64)
		case types.Bool:
			dst = strconv.AppendBool(dst, k.B)
		case types.String:
			dst = strconv.AppendQuote(dst, k.S)
		default:
			dst = append(dst, k.String()...)
		}
		n := len(dst) - at
		if n < 0x80 {
			dst[at-1] = byte(n)
			continue
		}
		// A rendering of 128 bytes or more needs a longer length prefix:
		// make room and move the rendering up.
		var lenBuf [binary.MaxVarintLen64]byte
		ln := binary.PutUvarint(lenBuf[:], uint64(n))
		dst = append(dst, lenBuf[:ln-1]...)
		copy(dst[at+ln-1:], dst[at:at+n])
		copy(dst[at-1:], lenBuf[:ln])
	}
	return dst
}

// Get returns (creating if needed) the group for the keys.
func (g *Groups) Get(keys []types.Value) *Group { return g.get(keys, &groupSlabs{}) }

// get is Get with new groups carved from the caller's slabs. The probe
// renders the key into a stack buffer, so finding an existing group allocates
// nothing and a new one, beyond itself, only its map key.
func (g *Groups) get(keys []types.Value, slabs *groupSlabs) *Group {
	var arr [64]byte
	buf := AppendGroupKey(arr[:0], keys)
	grp, ok := g.M[string(buf)]
	if !ok {
		grp = slabs.newGroup(keys, g.NumAggs)
		g.M[string(buf)] = grp
	}
	return grp
}

// groupSlabs hands out the groups one scan creates (all of one key width
// and aggregate count) from chunks that grow with the group count, up to 64
// at a time: a high-cardinality GROUP BY allocates per chunk, and a
// one-group result holds one group.
type groupSlabs struct {
	made   int
	groups []Group
	keys   []types.Value
	cells  []Cell
}

func (sl *groupSlabs) newGroup(keys []types.Value, numAggs int) *Group {
	if len(sl.groups) == 0 {
		n := min(max(sl.made, 1), 64)
		sl.groups = make([]Group, n)
		sl.keys = make([]types.Value, n*len(keys))
		sl.cells = make([]Cell, n*numAggs)
	}
	grp := &sl.groups[0]
	grp.Keys, grp.Cells = sl.keys[:len(keys):len(keys)], sl.cells[:numAggs:numAggs]
	copy(grp.Keys, keys)
	sl.groups, sl.keys, sl.cells = sl.groups[1:], sl.keys[len(keys):], sl.cells[numAggs:]
	sl.made++
	return grp
}

// Merge folds another partial result into g (the stem server's job).
func (g *Groups) Merge(o *Groups) {
	for k, og := range o.M {
		if grp, ok := g.M[k]; ok {
			grp.mergeCells(og)
		} else {
			g.M[k] = og
		}
	}
}

// UpdateRow folds one joined row into the group state: group keys and
// aggregate arguments are evaluated against env.
func (g *Groups) UpdateRow(groupBy []sqlparser.Expr, aggs []plan.AggSpec, env Env) error {
	var arr [4]types.Value
	keys := arr[:0]
	for _, expr := range groupBy {
		v, err := Eval(expr, env)
		if err != nil {
			return err
		}
		keys = append(keys, v)
	}
	grp := g.Get(keys)
	for i, spec := range aggs {
		if spec.Star {
			grp.Cells[i].Update(types.Value{}, true)
			continue
		}
		v, err := Eval(spec.Arg, env)
		if err != nil {
			return err
		}
		grp.Cells[i].Update(v, false)
	}
	return nil
}
