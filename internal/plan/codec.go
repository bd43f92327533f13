package plan

// Wire form of physical plans, which the cluster's packed messages carry. A
// message holds one plan section — every distinct plan it refers to,
// encoded once — and names a plan by its index there (Encoder.Ref,
// Section.Plan). What is encoded is exactly what a leaf, stem or reducer
// runs; MasterOnly lists what stays behind.
//
// The section lists tables, then broadcast dimensions, then plans. Every
// pointer between them — a plan's tables and dimensions, a dimension's
// table, a shuffle's build table and map sub-plans — is an index into its
// list, 0 for nil, so decoding restores the sharing the master built: a
// probe sub-plan and its parent share their dimension plans (and the
// dimension data is shipped once), and the tasks of one plan point at one
// decoded plan. Each list decodes into one slab, and every string in the
// section is cut from one copy of it.
//
// Decoding reads untrusted bytes: each count is checked against the bytes
// present before anything is allocated, each index against its list, and
// corrupt input yields an error wrapping types.ErrCorruptBatch.

import (
	"encoding/binary"
	"slices"

	"repro/internal/sqlparser"
	"repro/internal/types"
)

// MasterOnly names the plan fields ("Type.Field") no receiver reads, each
// with the reason it stays on the master: the codec does not carry them, so
// a decoded plan has them zero. Every other exported field reachable from a
// PhysicalPlan is carried.
var MasterOnly = map[string]string{
	"PhysicalPlan.SQL":         "the statement's rendering: logs, progress and traces, all on the master",
	"PhysicalPlan.Fingerprint": "keys the result cache, the statement flight, the slow log and TaskSpec.Key's retry jitter, all on the master",
	"PhysicalPlan.Literals":    "result-cache subsumption, on the master",
	"PhysicalPlan.LiteralKey":  "keys the result cache and the statement flight, on the master",
	"PhysicalPlan.ReuseSlots":  "result-cache subsumption, on the master",
	"Analyzed.Stmt":            "the parsed statement: planning and rendering only",
	"Analyzed.Where":           "planning only: its pushed-down and post-join parts travel as Filter and Post",
	"Analyzed.GroupBy":         "planning only: the plan's own GroupBy travels",
	"Analyzed.HasAgg":          "planning only: the plan's Mode travels",
	"Analyzed.OrderBy":         "Finalize, on the master",
	"Analyzed.Limit":           "Finalize, on the master; a leaf stops at the plan's ScanLimit",
	"TableMeta.Schema":         "binding, on the master; a leaf reads each partition's schema from its footer",
	"TableMeta.Partitions":     "dissection and authorization, on the master; each task carries its own partition",
}

// maxExprDepth bounds the nesting of a decoded expression, so hostile bytes
// cannot recurse the decoder arbitrarily deep.
const maxExprDepth = 1 << 12

// Minimum encoded sizes, checked against the input before a list of them is
// allocated.
const (
	tableMinBytes  = 4  // name, alias, meta flag, ordinal
	dimMinBytes    = 7  // table, type, five lists
	planMinBytes   = 10 // analyzed flag, mode, six lists, scan limit, shuffle flag
	clauseMinBytes = 2
	atomMinBytes   = 5
	outputMinBytes = 5
	aggMinBytes    = 4
	colRefMinBytes = 2
)

// Expression node tags.
const (
	exprNil byte = iota
	exprColumn
	exprLiteral
	exprBinary
	exprIsNull
	exprNot
	exprNeg
	exprFunc
)

// An Encoder writes one message's plan section.
type Encoder struct {
	plans  []*PhysicalPlan
	tables []*BoundTable
	dims   []*DimPlan
}

// Add registers p for the section, and the map sub-plans its shuffle
// derives. Adding a plan twice registers it once.
func (e *Encoder) Add(p *PhysicalPlan) {
	if p == nil || slices.Contains(e.plans, p) {
		return
	}
	e.plans = append(e.plans, p)
	if p.A != nil {
		for _, t := range p.A.Tables {
			e.addTable(t)
		}
	}
	for _, d := range p.Dims {
		if d != nil && !slices.Contains(e.dims, d) {
			e.dims = append(e.dims, d)
			e.addTable(d.Table)
		}
	}
	if sh := p.Shuffle; sh != nil {
		e.addTable(sh.Build)
		e.Add(sh.ProbePlan)
		e.Add(sh.BuildPlan)
	}
}

func (e *Encoder) addTable(t *BoundTable) {
	if t != nil && !slices.Contains(e.tables, t) {
		e.tables = append(e.tables, t)
	}
}

// Ref returns the index a message carries for p, which must have been
// added: 0 for nil, else one more than p's place in the section.
func (e *Encoder) Ref(p *PhysicalPlan) uint64 { return ref(e.plans, p) }

func ref[T any](list []*T, p *T) uint64 {
	if p == nil {
		return 0
	}
	return uint64(slices.Index(list, p) + 1)
}

// AppendSection appends the section: its byte length, then every table,
// dimension and plan added.
func (e *Encoder) AppendSection(b []byte) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	b = appendList(e, b, e.tables, appendTable)
	b = appendList(e, b, e.dims, appendDim)
	b = appendList(e, b, e.plans, appendPlan)
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// appendList appends a slice, nil kept apart from empty. Element encoders are
// plain functions, never closures, so encoding allocates nothing here.
func appendList[T any](e *Encoder, b []byte, s []T, elem func(*Encoder, []byte, T) []byte) []byte {
	b = types.AppendCount(b, len(s), s == nil)
	for _, x := range s {
		b = elem(e, b, x)
	}
	return b
}

func appendStr(_ *Encoder, b []byte, s string) []byte { return types.AppendString(b, s) }

func appendTable(_ *Encoder, b []byte, t *BoundTable) []byte {
	b = types.AppendString(b, t.Ref.Name)
	b = types.AppendString(b, t.Ref.Alias)
	if t.Meta == nil {
		b = append(b, 0)
	} else {
		b = types.AppendString(append(b, 1), t.Meta.Name)
		b = binary.AppendUvarint(b, t.Meta.Version)
	}
	return binary.AppendVarint(b, int64(t.Ordinal))
}

func appendTableRef(e *Encoder, b []byte, t *BoundTable) []byte {
	return binary.AppendUvarint(b, ref(e.tables, t))
}

func appendDimRef(e *Encoder, b []byte, d *DimPlan) []byte {
	return binary.AppendUvarint(b, ref(e.dims, d))
}

func appendDim(e *Encoder, b []byte, d *DimPlan) []byte {
	b = appendTableRef(e, b, d.Table)
	b = binary.AppendVarint(b, int64(d.Type))
	b = appendList(e, b, d.FactKeys, appendExpr)
	b = appendList(e, b, d.DimKeys, appendStr)
	b = appendList(e, b, d.Residual, appendClause)
	b = appendList(e, b, d.Needed, appendStr)
	return types.AppendRows(b, d.Data)
}

func appendPlan(e *Encoder, b []byte, p *PhysicalPlan) []byte {
	if a := p.A; a == nil {
		b = append(b, 0)
	} else {
		b = appendList(e, append(b, 1), a.Tables, appendTableRef)
		b = appendList(e, b, a.Outputs, appendOutput)
		b = appendExpr(e, b, a.Having)
	}
	b = binary.AppendVarint(b, int64(p.Mode))
	b = appendList(e, b, p.FactCols, appendStr)
	b = appendList(e, b, p.Filter.Clauses, appendClause)
	b = appendList(e, b, p.Post, appendClause)
	b = appendList(e, b, p.Dims, appendDimRef)
	b = appendList(e, b, p.GroupBy, appendExpr)
	b = appendList(e, b, p.Aggs, appendAgg)
	b = binary.AppendVarint(b, p.ScanLimit)
	sh := p.Shuffle
	if sh == nil {
		return append(b, 0)
	}
	b = binary.AppendVarint(append(b, 1), int64(sh.Partitions))
	b = binary.AppendVarint(b, sh.MemoryGrant)
	b = types.AppendBool(b, sh.GroupShuffle)
	b = appendTableRef(e, b, sh.Build)
	b = binary.AppendVarint(b, int64(sh.JoinType))
	b = binary.AppendUvarint(b, e.Ref(sh.ProbePlan))
	b = binary.AppendUvarint(b, e.Ref(sh.BuildPlan))
	b = binary.AppendVarint(b, int64(sh.Keys))
	b = appendList(e, b, sh.ProbeCols, appendColRef)
	b = appendList(e, b, sh.BuildCols, appendColRef)
	return appendList(e, b, sh.Residual, appendClause)
}

func appendOutput(e *Encoder, b []byte, o OutputItem) []byte {
	b = appendExpr(e, b, o.Expr)
	b = types.AppendString(b, o.Name)
	b = append(b, byte(o.Type))
	b = types.AppendBool(b, o.Agg)
	return types.AppendBool(b, o.Hidden)
}

func appendAgg(e *Encoder, b []byte, a AggSpec) []byte {
	b = types.AppendString(b, a.Func)
	b = appendExpr(e, b, a.Arg)
	b = types.AppendBool(b, a.Star)
	return types.AppendString(b, a.Key)
}

func appendColRef(_ *Encoder, b []byte, c ColRef) []byte {
	return types.AppendString(types.AppendString(b, c.Table), c.Col)
}

func appendClause(e *Encoder, b []byte, c Clause) []byte {
	b = appendList(e, b, c.Atoms, appendAtom)
	return appendList(e, b, c.Opaque, appendExpr)
}

func appendAtom(_ *Encoder, b []byte, a Atom) []byte {
	b = types.AppendString(b, a.Table)
	b = types.AppendString(b, a.Col)
	b = binary.AppendVarint(b, int64(a.Op))
	b = types.AppendValue(b, a.Val)
	return types.AppendBool(b, a.Negated)
}

// appendExpr appends an expression tree, each node tagged by one byte.
func appendExpr(e *Encoder, b []byte, x sqlparser.Expr) []byte {
	switch x := x.(type) {
	case nil:
		return append(b, exprNil)
	case *sqlparser.ColumnRef:
		return appendColumnRef(append(b, exprColumn), x)
	case *sqlparser.Literal:
		return types.AppendValue(append(b, exprLiteral), x.Value)
	case *sqlparser.BinaryExpr:
		b = binary.AppendVarint(append(b, exprBinary), int64(x.Op))
		return appendExpr(e, appendExpr(e, b, x.L), x.R)
	case *sqlparser.IsNullExpr:
		return appendExpr(e, types.AppendBool(append(b, exprIsNull), x.Not), x.X)
	case *sqlparser.NotExpr:
		return appendExpr(e, append(b, exprNot), x.X)
	case *sqlparser.NegExpr:
		return appendExpr(e, append(b, exprNeg), x.X)
	case *sqlparser.FuncCall:
		b = types.AppendString(append(b, exprFunc), x.Name)
		b = appendList(e, b, x.Args, appendExpr)
		b = types.AppendBool(b, x.Star)
		if x.Within == nil {
			b = append(b, 0)
		} else {
			b = appendColumnRef(append(b, 1), x.Within)
		}
		return types.AppendBool(b, x.WithinRecord)
	}
	panic("plan: no wire form for expression node " + x.String()) // sqlparser.Expr is sealed: unreachable
}

func appendColumnRef(b []byte, c *sqlparser.ColumnRef) []byte {
	b = appendList(nil, b, c.Parts, appendStr)
	return types.AppendString(types.AppendString(b, c.Table), c.Column)
}

// A Section is a decoded plan section: the plans a message refers to.
type Section struct {
	plans []PhysicalPlan
}

// Plan reads a plan index written with Encoder.Ref and resolves it: nil for
// 0, and a decoding error when the section has no such plan.
func (s Section) Plan(r *types.Reader) *PhysicalPlan { return index(r, s.plans) }

// index reads a 1-based index into list (0 is nil), failing past its end.
func index[T any](r *types.Reader, list []T) *T {
	i := r.Uvarint()
	if i == 0 {
		return nil
	}
	if i > uint64(len(list)) {
		r.Fail("plan section index out of range")
		return nil
	}
	return &list[i-1]
}

// ReadSection decodes the plan section at the reader's position. Nothing the
// section decodes to aliases the reader's bytes.
func ReadSection(r *types.Reader) Section {
	d := decoder{}
	r.Decode(func(b []byte) ([]byte, error) {
		if len(b) < 4 || uint64(binary.BigEndian.Uint32(b)) > uint64(len(b)-4) {
			d.Fail("truncated plan section")
			return nil, d.Err()
		}
		n := 4 + int(binary.BigEndian.Uint32(b))
		d.Reader = types.NewReader(b[4:n])
		d.Carve()
		d.read()
		return b[n:], d.Err()
	})
	return Section{plans: d.plans}
}

// decoder reads one section.
type decoder struct {
	types.Reader
	tables []BoundTable
	dims   []DimPlan
	plans  []PhysicalPlan
	depth  int
}

func (d *decoder) read() {
	n, _ := d.Count(tableMinBytes)
	d.tables = make([]BoundTable, n)
	metas := make([]TableMeta, n)
	for i := range d.tables {
		t := &d.tables[i]
		t.Ref.Name, t.Ref.Alias = d.Str(), d.Str()
		if d.Bool() {
			t.Meta = &metas[i]
			t.Meta.Name, t.Meta.Version = d.Str(), d.Uvarint()
		}
		t.Ordinal = d.Int()
	}
	n, _ = d.Count(dimMinBytes)
	d.dims = make([]DimPlan, n)
	for i := range d.dims {
		dp := &d.dims[i]
		dp.Table = d.tableRef()
		dp.Type = sqlparser.JoinType(d.Int())
		dp.FactKeys = readList(d, 1, (*decoder).expr)
		dp.DimKeys = readList(d, 1, (*decoder).str)
		dp.Residual = readList(d, clauseMinBytes, (*decoder).clause)
		dp.Needed = readList(d, 1, (*decoder).str)
		dp.Data = d.Rows()
	}
	n, _ = d.Count(planMinBytes)
	d.plans = make([]PhysicalPlan, n)
	analyzed := make([]Analyzed, n)
	for i := range d.plans {
		d.plan(&d.plans[i], &analyzed[i])
	}
	if d.Err() == nil && len(d.Rest()) != 0 {
		d.Fail("trailing bytes after plan section")
	}
}

// readList reads a slice written by appendList. Element decoders are method
// expressions, never closures.
func readList[T any](d *decoder, min int, elem func(*decoder) T) []T {
	n, isNil := d.Count(min)
	if isNil {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = elem(d)
	}
	return s
}

func (d *decoder) str() string { return d.Str() }

func (d *decoder) tableRef() *BoundTable  { return index(&d.Reader, d.tables) }
func (d *decoder) dimRef() *DimPlan       { return index(&d.Reader, d.dims) }
func (d *decoder) planRef() *PhysicalPlan { return index(&d.Reader, d.plans) }

func (d *decoder) plan(p *PhysicalPlan, a *Analyzed) {
	if d.Bool() {
		p.A = a
		a.Tables = readList(d, 1, (*decoder).tableRef)
		a.Outputs = readList(d, outputMinBytes, (*decoder).output)
		a.Having = d.expr()
	}
	p.Mode = OutMode(d.Int())
	p.FactCols = readList(d, 1, (*decoder).str)
	p.Filter.Clauses = readList(d, clauseMinBytes, (*decoder).clause)
	p.Post = readList(d, clauseMinBytes, (*decoder).clause)
	p.Dims = readList(d, 1, (*decoder).dimRef)
	p.GroupBy = readList(d, 1, (*decoder).expr)
	p.Aggs = readList(d, aggMinBytes, (*decoder).agg)
	p.ScanLimit = d.Varint()
	if !d.Bool() {
		return
	}
	sh := &ShuffleSpec{}
	p.Shuffle = sh
	sh.Partitions = d.Int()
	sh.MemoryGrant = d.Varint()
	sh.GroupShuffle = d.Bool()
	sh.Build = d.tableRef()
	sh.JoinType = sqlparser.JoinType(d.Int())
	sh.ProbePlan = d.planRef()
	sh.BuildPlan = d.planRef()
	sh.Keys = d.Int()
	sh.ProbeCols = readList(d, colRefMinBytes, (*decoder).colRef)
	sh.BuildCols = readList(d, colRefMinBytes, (*decoder).colRef)
	sh.Residual = readList(d, clauseMinBytes, (*decoder).clause)
}

func (d *decoder) output() OutputItem {
	return OutputItem{Expr: d.expr(), Name: d.Str(), Type: types.Type(d.Byte()), Agg: d.Bool(), Hidden: d.Bool()}
}

func (d *decoder) agg() AggSpec {
	return AggSpec{Func: d.Str(), Arg: d.expr(), Star: d.Bool(), Key: d.Str()}
}

func (d *decoder) colRef() ColRef { return ColRef{Table: d.Str(), Col: d.Str()} }

func (d *decoder) clause() Clause {
	return Clause{Atoms: readList(d, atomMinBytes, (*decoder).atom), Opaque: readList(d, 1, (*decoder).expr)}
}

func (d *decoder) atom() Atom {
	return Atom{Table: d.Str(), Col: d.Str(), Op: sqlparser.BinaryOp(d.Int()), Val: d.Value(), Negated: d.Bool()}
}

func (d *decoder) expr() sqlparser.Expr {
	if d.depth++; d.depth > maxExprDepth {
		d.Fail("expression nested too deep")
	}
	defer func() { d.depth-- }()
	switch tag := d.Byte(); tag {
	case exprNil:
		return nil
	case exprColumn:
		return d.columnRef()
	case exprLiteral:
		return &sqlparser.Literal{Value: d.Value()}
	case exprBinary:
		x := &sqlparser.BinaryExpr{Op: sqlparser.BinaryOp(d.Int())}
		x.L, x.R = d.expr(), d.expr()
		return x
	case exprIsNull:
		x := &sqlparser.IsNullExpr{Not: d.Bool()}
		x.X = d.expr()
		return x
	case exprNot:
		return &sqlparser.NotExpr{X: d.expr()}
	case exprNeg:
		return &sqlparser.NegExpr{X: d.expr()}
	case exprFunc:
		x := &sqlparser.FuncCall{Name: d.Str(), Args: readList(d, 1, (*decoder).expr), Star: d.Bool()}
		if d.Bool() {
			x.Within = d.columnRef()
		}
		x.WithinRecord = d.Bool()
		return x
	}
	d.Fail("unknown expression node")
	return nil
}

func (d *decoder) columnRef() *sqlparser.ColumnRef {
	return &sqlparser.ColumnRef{Parts: readList(d, 1, (*decoder).str), Table: d.Str(), Column: d.Str()}
}
