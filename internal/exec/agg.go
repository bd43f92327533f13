package exec

import (
	"fmt"
	"math"

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

// GroupKey is the equality key of a tuple, as AppendGroupKey writes it.
func GroupKey(keys []types.Value) string {
	if len(keys) == 0 {
		return ""
	}
	return string(AppendGroupKey(make([]byte, 0, 16*len(keys)), keys))
}

// AppendGroupKey appends the equality key of a tuple to dst: the one key that
// GROUP BY, both hash joins, shuffle routing and grace-hash spill buckets
// compare. Each value is written with types.AppendValue, whose form is
// self-delimiting, so no two tuples share a key by running together. One
// canonicalisation step comes first: a DOUBLE that holds an integer in int64
// range is written as that BIGINT, so 3.0 keys like 3 and -0 like 0, and
// every NaN is written as one NaN. Two tuples then share a key exactly when
// they are types.Equal at every position.
func AppendGroupKey(dst []byte, keys []types.Value) []byte {
	for _, k := range keys {
		if k.T == types.Float64 {
			if i, ok := k.As(types.Int64); ok {
				k = i
			} else if k.F != k.F {
				k.F = math.NaN()
			}
		}
		dst = types.AppendValue(dst, k)
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
// and aggregate count) from slabs: a high-cardinality GROUP BY allocates per
// chunk, and a one-group result holds one group.
type groupSlabs struct {
	made   int
	groups []Group
	keys   []types.Value
	cells  []Cell
}

func (sl *groupSlabs) newGroup(keys []types.Value, numAggs int) *Group {
	grp := &cut(&sl.groups, 1, sl.made)[0]
	grp.Keys, grp.Cells = cut(&sl.keys, len(keys), sl.made), cut(&sl.cells, numAggs, sl.made)
	copy(grp.Keys, keys)
	sl.made++
	return grp
}

// cut cuts a w-wide piece from *slab, capped so that appending to it never
// writes into the next, and empty, not nil, at width 0. An exhausted slab
// (or one too short, as a corrupt peer's wider group finds it) is refilled
// with room for as many pieces as made so far, 1 to 64.
func cut[T any](slab *[]T, w, made int) []T {
	if *slab == nil || len(*slab) < w {
		*slab = make([]T, min(max(made, 1), 64)*w)
	}
	piece := (*slab)[:w:w]
	*slab = (*slab)[w:]
	return piece
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

// updateRow folds one joined row into the group state: group keys and
// aggregate arguments are evaluated against env, and a new group is carved
// from slabs.
func (g *Groups) updateRow(groupBy []sqlparser.Expr, aggs []plan.AggSpec, env Env, slabs *groupSlabs) error {
	var arr [4]types.Value
	keys := arr[:0]
	for _, expr := range groupBy {
		v, err := Eval(expr, env)
		if err != nil {
			return err
		}
		keys = append(keys, v)
	}
	grp := g.get(keys, slabs)
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
