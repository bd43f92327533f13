package plan

import (
	"fmt"

	"repro/internal/sqlparser"
	"repro/internal/types"
)

// OutMode distinguishes aggregation queries (partial aggregation on leaves,
// merge on stems, finalize at the master) from plain selections (leaves emit
// projected rows).
type OutMode int

// Output modes.
const (
	ModeSelect OutMode = iota
	ModeAgg
)

// AggSpec is one distinct group-aggregate computed by the query.
type AggSpec struct {
	Func string         // COUNT, SUM, MIN, MAX, AVG
	Arg  sqlparser.Expr // nil for COUNT(*)
	Star bool
	Key  string // canonical call string; substitution key in output exprs
}

// DimPlan is one broadcast dimension table of the star join.
type DimPlan struct {
	Table    *BoundTable
	Type     sqlparser.JoinType
	FactKeys []sqlparser.Expr // key expressions over the fact row
	DimKeys  []string         // matching dimension columns
	Residual []Clause         // extra ON conditions checked per candidate
	Needed   []string         // dimension columns shipped to leaves
	// Data is the materialized dimension relation (Needed columns, in
	// order), loaded by the master before dispatch and broadcast with the
	// sub-plans.
	Data [][]types.Value
}

// PhysicalPlan is the optimized, dissectable plan.
type PhysicalPlan struct {
	A        *Analyzed
	Mode     OutMode
	FactCols []string // fact columns read from storage (pruned set)
	Filter   CNF      // fact-only clauses, pushed to the scan
	Post     []Clause // clauses evaluated after the join
	Dims     []*DimPlan
	GroupBy  []sqlparser.Expr
	Aggs     []AggSpec
	// ScanLimit lets leaves stop early on plain SELECT ... LIMIT without
	// ORDER BY; -1 otherwise.
	ScanLimit int64
	// SQL is the canonical rendering of the statement, literals included.
	SQL string
	// Fingerprint is the normalized query shape: the canonical rendering
	// with every literal lifted to a typed placeholder. All literal variants
	// of one query share it — the slowlog's shape key and the result cache's
	// primary key. (Fingerprint, LiteralKey) together identify the exact
	// logical query.
	Fingerprint string
	// Literals holds the bound literal values in placeholder order.
	Literals []types.Value
	// LiteralKey is the stable typed rendering of Literals ("" when the
	// query has none).
	LiteralKey string
	// ReuseSlots classifies each literal for predicate-subsumption reuse.
	ReuseSlots []LitSlot
	// Shuffle, when set, marks a repartitioned plan: a hash-shuffled join
	// (derived map sub-plans inside) or a group-by shuffle. Nil for pure
	// broadcast/star plans.
	Shuffle *ShuffleSpec
}

// Fact returns the plan's fact table.
func (p *PhysicalPlan) Fact() *BoundTable { return p.A.Fact() }

// Tasks dissects the plan into one sub-plan per fact partition.
func (p *PhysicalPlan) Tasks() []TaskSpec {
	fact := p.Fact()
	tasks := make([]TaskSpec, 0, len(fact.Meta.Partitions))
	for i, part := range fact.Meta.Partitions {
		tasks = append(tasks, TaskSpec{Plan: p, Partition: part, Ordinal: i})
	}
	return tasks
}

// TaskSpec is one leaf sub-plan: scan one fact partition under the shared
// plan.
type TaskSpec struct {
	Plan      *PhysicalPlan
	Partition PartitionMeta
	Ordinal   int
	// Workers is ignored and does not cross the wire: a task scans its
	// blocks in order on one goroutine. bench/ still sets it until ROADMAP
	// item 0(f).
	Workers int
}

// Key identifies the task's work content; identical keys compute identical
// results (same logical plan, same partition). The normalized fingerprint
// alone is NOT enough — literal variants share it — so the bound-literal
// key is part of the identity. Everything before the '@' is the statement's
// identity, which is why concurrent identical work is shared per statement
// (cluster.JobManager) and this key only seeds the retry jitter.
func (t TaskSpec) Key() string {
	return t.Plan.Fingerprint + "|" + t.Plan.LiteralKey + "@" + t.Partition.Path
}

// Build turns an analyzed query into a physical plan.
func Build(a *Analyzed) (*PhysicalPlan, error) {
	p := &PhysicalPlan{A: a, ScanLimit: -1}
	fact := a.Fact()
	factBind := fact.Ref.Binding()

	if a.HasAgg {
		p.Mode = ModeAgg
	}

	// Dimension skeletons: comma tables default to inner joins keyed from
	// WHERE; explicit JOINs carry their ON conditions.
	dimOf := make(map[string]*DimPlan)
	for _, bt := range a.Tables[1:] {
		d := &DimPlan{Table: bt, Type: sqlparser.JoinInner}
		p.Dims = append(p.Dims, d)
		dimOf[bt.Ref.Binding()] = d
	}
	for _, j := range a.Stmt.Joins {
		d := dimOf[j.Table.Binding()]
		d.Type = j.Type
		if d.Type == sqlparser.JoinRightOuter {
			// The broadcast executor preserves only the fact side; RIGHT
			// OUTER needs the repartition path (BuildWith).
			return nil, fmt.Errorf("plan: RIGHT OUTER JOIN %q requires a repartition shuffle", d.Table.Ref.Binding())
		}
		if j.On == nil {
			continue
		}
		onCNF := ToCNF(j.On)
		for _, cl := range onCNF.Clauses {
			if ok, fk, dk := equiJoinKey(cl, factBind, d.Table.Ref.Binding()); ok {
				d.FactKeys = append(d.FactKeys, fk)
				d.DimKeys = append(d.DimKeys, dk)
				continue
			}
			if err := clauseWithin(cl, factBind, d.Table.Ref.Binding()); err != nil {
				return nil, fmt.Errorf("plan: JOIN ON for %q: %w", d.Table.Ref.Binding(), err)
			}
			d.Residual = append(d.Residual, cl)
		}
	}

	// WHERE: split into pushed-down fact clauses, implicit join keys for
	// comma tables, and post-join clauses.
	where := ToCNF(a.Where)
	for _, cl := range where.Clauses {
		if onlyTable(cl, factBind) {
			p.Filter.Clauses = append(p.Filter.Clauses, cl)
			continue
		}
		claimed := false
		for _, d := range p.Dims {
			if wasJoined(a.Stmt, d.Table.Ref) {
				continue // explicit JOIN: WHERE stays a filter
			}
			if ok, fk, dk := equiJoinKey(cl, factBind, d.Table.Ref.Binding()); ok {
				d.FactKeys = append(d.FactKeys, fk)
				d.DimKeys = append(d.DimKeys, dk)
				claimed = true
				break
			}
		}
		if !claimed {
			p.Post = append(p.Post, cl)
		}
	}
	for _, d := range p.Dims {
		if len(d.FactKeys) == 0 && d.Type != sqlparser.JoinCross {
			d.Type = sqlparser.JoinCross
		}
		if d.Type == sqlparser.JoinLeftOuter && len(d.FactKeys) == 0 {
			return nil, fmt.Errorf("plan: LEFT OUTER JOIN %q needs at least one equi-join key", d.Table.Ref.Binding())
		}
	}

	// Aggregates and grouping.
	if p.Mode == ModeAgg {
		seen := make(map[string]bool)
		for _, oi := range a.Outputs {
			collectAggs(oi.Expr, seen, &p.Aggs)
		}
		p.GroupBy = a.GroupBy
	} else {
		if a.Limit >= 0 && len(a.OrderBy) == 0 {
			p.ScanLimit = a.Limit
		}
	}

	// Column pruning: everything any surviving expression touches.
	var refs []ColRef
	for _, oi := range a.Outputs {
		ColumnsOf(oi.Expr, &refs)
	}
	for _, g := range p.GroupBy {
		ColumnsOf(g, &refs)
	}
	for _, cl := range append(append([]Clause{}, p.Filter.Clauses...), p.Post...) {
		clauseColumns(cl, &refs)
	}
	for _, d := range p.Dims {
		for _, fk := range d.FactKeys {
			ColumnsOf(fk, &refs)
		}
		for _, dk := range d.DimKeys {
			addCol(&refs, ColRef{Table: d.Table.Ref.Binding(), Col: dk})
		}
		for _, cl := range d.Residual {
			clauseColumns(cl, &refs)
		}
	}
	for _, r := range refs {
		if r.Table == factBind {
			p.FactCols = appendUnique(p.FactCols, r.Col)
		} else if d, ok := dimOf[r.Table]; ok {
			d.Needed = appendUnique(d.Needed, r.Col)
		}
	}

	p.SQL = a.Stmt.String()
	p.Fingerprint, p.Literals, p.ReuseSlots = Normalize(a.Stmt)
	p.LiteralKey = LiteralKey(p.Literals)
	return p, nil
}

// Plan runs Analyze + BuildWith under the default planner options.
func Plan(stmt *sqlparser.SelectStmt, cat Catalog) (*PhysicalPlan, error) {
	return PlanWith(stmt, cat, DefaultOptions())
}

func appendUnique(list []string, s string) []string {
	for _, e := range list {
		if e == s {
			return list
		}
	}
	return append(list, s)
}

// collectAggs appends each distinct aggregate call in the expression.
func collectAggs(e sqlparser.Expr, seen map[string]bool, out *[]AggSpec) {
	switch x := e.(type) {
	case *sqlparser.FuncCall:
		if isAggName(x.Name) && x.Within == nil && !x.WithinRecord {
			key := x.String()
			if !seen[key] {
				seen[key] = true
				spec := AggSpec{Func: x.Name, Star: x.Star, Key: key}
				if !x.Star {
					spec.Arg = x.Args[0]
				}
				*out = append(*out, spec)
			}
			return
		}
		for _, a := range x.Args {
			collectAggs(a, seen, out)
		}
	case *sqlparser.BinaryExpr:
		collectAggs(x.L, seen, out)
		collectAggs(x.R, seen, out)
	case *sqlparser.NotExpr:
		collectAggs(x.X, seen, out)
	case *sqlparser.NegExpr:
		collectAggs(x.X, seen, out)
	case *sqlparser.IsNullExpr:
		collectAggs(x.X, seen, out)
	}
}

// equiJoinKey recognizes a clause that is exactly `fact.col = dim.col`
// (either order) and returns the fact-side expression and dim column.
func equiJoinKey(cl Clause, factBind, dimBind string) (bool, sqlparser.Expr, string) {
	if len(cl.Atoms) != 0 || len(cl.Opaque) != 1 {
		return false, nil, ""
	}
	b, ok := cl.Opaque[0].(*sqlparser.BinaryExpr)
	if !ok || b.Op != sqlparser.OpEq {
		return false, nil, ""
	}
	l, lok := b.L.(*sqlparser.ColumnRef)
	r, rok := b.R.(*sqlparser.ColumnRef)
	if !lok || !rok {
		return false, nil, ""
	}
	switch {
	case l.Table == factBind && r.Table == dimBind:
		return true, l, r.Column
	case r.Table == factBind && l.Table == dimBind:
		return true, r, l.Column
	default:
		return false, nil, ""
	}
}

// onlyTable reports whether the clause references only the given binding.
func onlyTable(cl Clause, bind string) bool {
	var refs []ColRef
	clauseColumns(cl, &refs)
	for _, r := range refs {
		if r.Table != bind {
			return false
		}
	}
	return true
}

// clauseWithin verifies a residual join clause references only the fact
// table and the joined dimension (star schema: dims never join dims).
func clauseWithin(cl Clause, factBind, dimBind string) error {
	var refs []ColRef
	clauseColumns(cl, &refs)
	for _, r := range refs {
		if r.Table != factBind && r.Table != dimBind {
			return fmt.Errorf("references third table %q (star schema requires fact-dimension joins)", r.Table)
		}
	}
	return nil
}

func clauseColumns(cl Clause, sink *[]ColRef) {
	for _, a := range cl.Atoms {
		addCol(sink, ColRef{Table: a.Table, Col: a.Col})
	}
	for _, o := range cl.Opaque {
		ColumnsOf(o, sink)
	}
}

// wasJoined reports whether the table arrived via an explicit JOIN clause.
func wasJoined(stmt *sqlparser.SelectStmt, ref sqlparser.TableRef) bool {
	for _, j := range stmt.Joins {
		if j.Table.Binding() == ref.Binding() {
			return true
		}
	}
	return false
}
