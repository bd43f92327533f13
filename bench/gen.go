package main

// gen.go holds every input generator of the benchmark: the PRNG, the rows of
// the two tables, the JSON ingest batches and the statement lists. Nothing
// here imports the program's own generators (internal/workload,
// internal/experiments, internal/sqltest), so a later change to the program
// cannot change the benchmark's inputs.

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/types"
)

// Frozen data shape (bench/README.md, "Data").
const (
	logPartitions = 16
	partRows      = 16384
	blockRows     = 4096
	logRows       = logPartitions * partRows
	userRows      = 16384
	numURLs       = 4096
	numQueries    = 1024
	numUIDs       = 16384
	numSegments   = 32
	fillerCols    = 14
	batchRows     = 1024
)

// rng is splitmix64: tiny, fast, and identical on every Go version, which
// math/rand does not promise.
type rng struct{ s uint64 }

// Streams of one run seed. Each generator draws from its own stream, so the
// rows do not change when a statement generator draws one more number.
const (
	streamRows = iota + 1
	streamUsers
	streamStmts
)

func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
	r.u64()
	return r
}

func (r *rng) u64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.u64() % uint64(n)) }

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.u64()>>11) / (1 << 53) }

// exp returns an exponential variate with mean 1.
func (r *rng) exp() float64 { return -math.Log(1 - r.float()) }

// zipf samples ranks 0..n-1 with P(k) ∝ (k+1)^-s from a precomputed CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rng) int {
	k := sort.SearchFloat64s(z.cdf, r.float())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// col names one of the ten queried columns of logs.
type col int

const (
	cTs col = iota
	cQuery
	cURL
	cRegion
	cClicks
	cPos
	cDwell
	cScore
	cUID
	cSpam
	numCols
)

var (
	colName = [numCols]string{"ts", "query", "url", "region", "clicks", "pos", "dwell", "score", "uid", "spam"}
	colType = [numCols]types.Type{types.Int64, types.String, types.String, types.String, types.Int64,
		types.Int64, types.Float64, types.Float64, types.Int64, types.Bool}
	// fillerType is the type of filler column i: five ints, four floats, four
	// strings and a bool, so every encoder is on the write path.
	fillerType = [fillerCols]types.Type{types.Int64, types.Int64, types.Int64, types.Int64, types.Int64,
		types.Float64, types.Float64, types.Float64, types.Float64,
		types.String, types.String, types.String, types.String, types.Bool}
	regions = [3]string{"north", "south", "east"}
)

// logSchema is the 24-column schema: the ten queried columns, then fourteen
// filler columns that are written and stored but never read.
func logSchema() *types.Schema {
	fields := make([]types.Field, 0, int(numCols)+fillerCols)
	for c := col(0); c < numCols; c++ {
		fields = append(fields, types.Field{Name: colName[c], Type: colType[c]})
	}
	for i, t := range fillerType {
		fields = append(fields, types.Field{Name: fmt.Sprintf("f%02d", i), Type: t})
	}
	return types.MustSchema(fields...)
}

func userSchema() *types.Schema {
	return types.MustSchema(
		types.Field{Name: "uid", Type: types.Int64},
		types.Field{Name: "segment", Type: types.String},
		types.Field{Name: "age", Type: types.Int64},
	)
}

// segment is the generator's own copy of one partition's queried columns:
// what the answer checker loops over in plain Go.
type segment struct {
	n    int
	ints [numCols][]int64
	flts [numCols][]float64
	strs [numCols][]string
	spam []bool
}

// tsRange returns the first and last ts of the segment; ts is monotone.
func (s *segment) tsRange() (int64, int64) { return s.ints[cTs][0], s.ints[cTs][s.n-1] }

// rowGen produces the rows of logs, base partitions and ingest batches
// alike, as one monotone ts sequence.
type rowGen struct {
	r       *rng
	urls    []string
	queries []string
	tokens  []string
	urlZ    *zipf
	queryZ  *zipf
	posZ    *zipf
	nextTs  int64
	// hash is FNV-1a over every value generated so far, filler columns
	// included; two runs of one seed must agree on it.
	hash uint64
}

func newRowGen(seed uint64) *rowGen {
	g := &rowGen{
		r:       newRNG(seed, streamRows),
		urls:    make([]string, numURLs),
		queries: make([]string, numQueries),
		tokens:  make([]string, 256),
		urlZ:    newZipf(numURLs, 0.9),
		queryZ:  newZipf(numQueries, 1.0),
		posZ:    newZipf(10, 1.0),
		hash:    fnvOffset,
	}
	for i := range g.urls {
		g.urls[i] = fmt.Sprintf("http://site-%04d.example/page", i)
	}
	for i := range g.queries {
		g.queries[i] = fmt.Sprintf("query %04d", i)
	}
	for i := range g.tokens {
		g.tokens[i] = fmt.Sprintf("tok%03d", i)
	}
	return g
}

// row generates the next record: the queried values go into seg, and all 24
// values into out, which the caller reuses from row to row.
//
// dwell and score are dyadic rationals (k/64, k/65536). Their sums are exact
// in float64 whatever the order of addition, so SUM results do not depend on
// the order in which the master happens to merge leaf partials, and the
// checker can compare them bit for bit.
func (g *rowGen) row(seg *segment, out types.Row) {
	r := g.r
	ts := g.nextTs
	g.nextTs++
	query := g.queries[g.queryZ.draw(r)]
	url := g.urls[g.urlZ.draw(r)]
	region := regions[0]
	switch u := r.float(); {
	case u >= 0.8:
		region = regions[2]
	case u >= 0.5:
		region = regions[1]
	}
	clicks := int64(r.exp() * 4)
	if clicks > 63 {
		clicks = 63
	}
	pos := int64(1 + g.posZ.draw(r))
	dwell := math.Floor(r.exp()*60*64) / 64
	if dwell > 600 {
		dwell = 600
	}
	score := float64(r.intn(65536)) / 65536
	uid := int64(1 + r.intn(numUIDs))
	spam := r.float() < 0.05

	seg.ints[cTs] = append(seg.ints[cTs], ts)
	seg.strs[cQuery] = append(seg.strs[cQuery], query)
	seg.strs[cURL] = append(seg.strs[cURL], url)
	seg.strs[cRegion] = append(seg.strs[cRegion], region)
	seg.ints[cClicks] = append(seg.ints[cClicks], clicks)
	seg.ints[cPos] = append(seg.ints[cPos], pos)
	seg.flts[cDwell] = append(seg.flts[cDwell], dwell)
	seg.flts[cScore] = append(seg.flts[cScore], score)
	seg.ints[cUID] = append(seg.ints[cUID], uid)
	seg.spam = append(seg.spam, spam)
	seg.n++

	out[cTs] = types.NewInt(ts)
	out[cQuery] = types.NewString(query)
	out[cURL] = types.NewString(url)
	out[cRegion] = types.NewString(region)
	out[cClicks] = types.NewInt(clicks)
	out[cPos] = types.NewInt(pos)
	out[cDwell] = types.NewFloat(dwell)
	out[cScore] = types.NewFloat(score)
	out[cUID] = types.NewInt(uid)
	out[cSpam] = types.NewBool(spam)

	// Fillers: a counter, a small range, a wide range, long runs and a
	// signed walk for the int encoders; plain floats; dictionary-friendly
	// and unique strings; a bool.
	f := out[numCols:]
	f[0] = types.NewInt(ts * 7)
	f[1] = types.NewInt(int64(r.intn(100)))
	f[2] = types.NewInt(int64(r.u64() >> 20))
	f[3] = types.NewInt(ts / 512)
	f[4] = types.NewInt(int64(r.intn(2001)) - 1000)
	f[5] = types.NewFloat(r.float())
	f[6] = types.NewFloat(float64(r.intn(1000)) / 8)
	f[7] = types.NewFloat(r.exp() * 1000)
	f[8] = types.NewFloat(float64(ts) * 0.5)
	f[9] = types.NewString(g.tokens[r.intn(16)])
	f[10] = types.NewString(g.tokens[r.intn(256)])
	f[11] = types.NewString(strconv.FormatUint(r.u64(), 16))
	f[12] = types.NewString(g.tokens[r.intn(256)] + "/" + g.tokens[r.intn(256)])
	f[13] = types.NewBool(r.u64()&1 == 1)

	for _, v := range out {
		g.hash = hashValue(g.hash, v)
	}
}

// appendJSON renders one generated record as a flat JSON object, the form
// the ingest converter watches for.
func appendJSON(dst []byte, schema *types.Schema, row types.Row) []byte {
	dst = append(dst, '{')
	for i, v := range row {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		dst = append(dst, schema.Fields[i].Name...)
		dst = append(dst, '"', ':')
		switch v.T {
		case types.Int64:
			dst = strconv.AppendInt(dst, v.I, 10)
		case types.Float64:
			dst = strconv.AppendFloat(dst, v.F, 'g', -1, 64)
		case types.Bool:
			dst = strconv.AppendBool(dst, v.B)
		default:
			// The vocabularies hold no character that JSON escapes.
			dst = append(dst, '"')
			dst = append(dst, v.S...)
			dst = append(dst, '"')
		}
	}
	return append(dst, '}', '\n')
}

// batch generates one ingest batch: the JSON-lines file and the checker's
// copy of its rows.
func (g *rowGen) batch(schema *types.Schema, rows int) ([]byte, *segment) {
	seg := &segment{}
	row := make(types.Row, schema.Len())
	buf := make([]byte, 0, rows*512)
	for i := 0; i < rows; i++ {
		g.row(seg, row)
		buf = appendJSON(buf, schema, row)
	}
	return buf, seg
}

// userTable is the checker's copy of users: segment by uid.
type userTable struct{ segment []string }

// genUsers calls emit once per row of users, uid 1..userRows in order.
func genUsers(seed uint64, emit func(types.Row) error) (*userTable, error) {
	r := newRNG(seed, streamUsers)
	names := make([]string, numSegments)
	for i := range names {
		names[i] = fmt.Sprintf("seg-%02d", i)
	}
	ut := &userTable{segment: make([]string, userRows+1)}
	row := make(types.Row, 3)
	for uid := 1; uid <= userRows; uid++ {
		ut.segment[uid] = names[r.intn(numSegments)]
		row[0] = types.NewInt(int64(uid))
		row[1] = types.NewString(ut.segment[uid])
		row[2] = types.NewInt(int64(18 + r.intn(63)))
		if err := emit(row); err != nil {
			return nil, err
		}
	}
	return ut, nil
}

// --- statements --------------------------------------------------------------

// atom is one `column op literal` predicate. Only the field that matches the
// column's type is set.
type atom struct {
	col col
	op  string // > >= < <= =
	i   int64
	f   float64
	s   string
	b   bool
}

func (a atom) sql(prefix string) string {
	lit := ""
	switch colType[a.col] {
	case types.Int64:
		lit = strconv.FormatInt(a.i, 10)
	case types.Float64:
		lit = strconv.FormatFloat(a.f, 'f', -1, 64)
		if a.f == math.Trunc(a.f) {
			lit += ".0" // keep the literal a DOUBLE
		}
	case types.String:
		lit = "'" + a.s + "'"
	default:
		lit = strconv.FormatBool(a.b)
	}
	return prefix + colName[a.col] + " " + a.op + " " + lit
}

func cmpOp[T int64 | float64](v T, op string, lit T) bool {
	switch op {
	case ">":
		return v > lit
	case ">=":
		return v >= lit
	case "<":
		return v < lit
	case "<=":
		return v <= lit
	default:
		return v == lit
	}
}

// match evaluates the atom on row r of the generator's own copy.
func (a atom) match(s *segment, r int) bool {
	switch colType[a.col] {
	case types.Int64:
		return cmpOp(s.ints[a.col][r], a.op, a.i)
	case types.Float64:
		return cmpOp(s.flts[a.col][r], a.op, a.f)
	case types.String:
		return s.strs[a.col][r] == a.s
	default:
		return s.spam[r] == a.b
	}
}

type stmtKind int

const (
	kCount   stmtKind = iota // SELECT COUNT(*) … WHERE atoms
	kSum                     // SELECT SUM(agg) … WHERE atoms
	kProject                 // SELECT cols … WHERE atoms LIMIT n: any n matching rows
	kSelect                  // SELECT cols … WHERE atoms: every matching row
	kGroup                   // SELECT group, COUNT(*), SUM(agg) … GROUP BY group
	kTop                     // kGroup ORDER BY n DESC, group LIMIT n
	kJoin                    // logs ⋈ users ON uid, GROUP BY users.segment
)

// stmt is one generated statement: its SQL text and the structure the
// checker evaluates in plain Go.
type stmt struct {
	sql   string
	kind  stmtKind
	atoms []atom
	agg   col   // SUM argument
	group col   // grouping column (kGroup, kTop)
	cols  []col // projection (kProject, kSelect)
	limit int
	// class attributes latency: 0/1 = shuffle_tcp class A/B, dash_ingest
	// miss/hit pass.
	class int
	// id numbers the workload's distinct statements; executions of one id
	// over an unchanged table must all return the same answer.
	id int
}

func where(atoms []atom, prefix string) string {
	s := ""
	for i, a := range atoms {
		if i == 0 {
			s = " WHERE "
		} else {
			s += " AND "
		}
		s += a.sql(prefix)
	}
	return s
}

func colList(cols []col) string {
	s := ""
	for i, c := range cols {
		if i > 0 {
			s += ", "
		}
		s += colName[c]
	}
	return s
}

// render fills st.sql from the structure.
func (st *stmt) render() {
	switch st.kind {
	case kCount:
		st.sql = "SELECT COUNT(*) FROM logs" + where(st.atoms, "")
	case kSum:
		st.sql = "SELECT SUM(" + colName[st.agg] + ") FROM logs" + where(st.atoms, "")
	case kProject:
		st.sql = "SELECT " + colList(st.cols) + " FROM logs" + where(st.atoms, "") + " LIMIT " + strconv.Itoa(st.limit)
	case kSelect:
		st.sql = "SELECT " + colList(st.cols) + " FROM logs" + where(st.atoms, "")
	case kGroup, kTop:
		g := colName[st.group]
		st.sql = "SELECT " + g + ", COUNT(*) AS n, SUM(" + colName[st.agg] + ") AS total FROM logs" +
			where(st.atoms, "") + " GROUP BY " + g
		if st.kind == kTop {
			st.sql += " ORDER BY n DESC, " + g + " LIMIT " + strconv.Itoa(st.limit)
		}
	case kJoin:
		st.sql = "SELECT u.segment AS segment, COUNT(*) AS n, SUM(l." + colName[st.agg] + ") AS total" +
			" FROM logs l JOIN users u ON l.uid = u.uid" + where(st.atoms, "l.") + " GROUP BY segment"
	}
}

// number renders every statement and gives equal SQL texts equal ids.
func number(list []stmt) []stmt {
	ids := make(map[string]int)
	for i := range list {
		list[i].render()
		id, ok := ids[list[i].sql]
		if !ok {
			id = len(ids)
			ids[list[i].sql] = id
		}
		list[i].id = id
	}
	return list
}

// projectCols is what the trial-and-error projections read; ts leads so the
// checker can find each returned row in its own copy.
var projectCols = []col{cTs, cUID, cURL, cClicks, cDwell}

// hotPool is scan_hot's pool of 64 atoms on six columns, in Zipf rank order.
// The structure (column, operator, approximate selectivity, rank) is the
// same for every seed, so seeds differ in sampling noise and not in which
// predicate happens to be the hottest; the seed moves the float literals
// within a narrow band so the atoms themselves are not constants of the
// benchmark. Each column lists its selective atoms (2–15 % of the rows)
// first: they get the head of the Zipf distribution, which keeps the rows a
// SUM or a projection has to touch few and the per-query fixed cost on top.
func hotPool(r *rng) []atom {
	ints := func(c col, specs ...any) []atom {
		var out []atom
		for i := 0; i < len(specs); i += 2 {
			out = append(out, atom{col: c, op: specs[i].(string), i: int64(specs[i+1].(int))})
		}
		return out
	}
	floats := func(c col, jitter int, unit float64, specs ...any) []atom {
		var out []atom
		for i := 0; i < len(specs); i += 2 {
			out = append(out, atom{col: c, op: specs[i].(string), f: specs[i+1].(float64) + float64(r.intn(jitter))/unit})
		}
		return out
	}
	byCol := [][]atom{
		ints(cClicks, ">", 8, ">", 12, ">=", 16, ">", 10, ">", 6, "<=", 0, ">", 4, "<=", 1,
			">", 2, "<=", 2, ">", 1, "<=", 3, ">", 3, "<=", 5, "<", 8),
		ints(cPos, ">", 7, "=", 5, ">", 8, "=", 3, ">", 6, "=", 4, ">", 5, "=", 2,
			"<=", 1, ">", 3, "<=", 2, "<=", 4),
		floats(cDwell, 64, 64, ">", 120.0, ">", 180.0, "<=", 5.0, ">", 240.0, ">", 90.0, "<=", 2.0, ">", 300.0, ">", 150.0,
			"<=", 10.0, ">", 60.0, "<=", 20.0, ">", 45.0, "<=", 30.0, ">", 30.0, "<=", 60.0, ">", 10.0),
		floats(cScore, 256, 65536, ">", 0.9, ">", 0.95, "<=", 0.05, ">", 0.8, ">", 0.85, "<=", 0.1, ">", 0.97, ">", 0.7,
			"<=", 0.02, ">", 0.6, "<=", 0.15, ">", 0.5, "<=", 0.25, ">", 0.75, "<=", 0.5, ">", 0.99),
		{{col: cRegion, op: "=", s: regions[2]}, {col: cRegion, op: "=", s: regions[1]}, {col: cRegion, op: "=", s: regions[0]}},
		{{col: cSpam, op: "=", b: true}, {col: cSpam, op: "=", b: false}},
	}
	// Interleave the columns so that neighbouring ranks are on different
	// columns and the head of the Zipf distribution covers all six.
	var pool []atom
	for i := 0; len(pool) < 64; i++ {
		for _, atoms := range byCol {
			if i < len(atoms) {
				pool = append(pool, atoms[i])
			}
		}
	}
	return pool
}

// coldAtom draws a fresh atom for scan_cold. The numeric literals come from
// wide domains (dwell k/64, score k/65536, uid 1..16384), so an atom all but
// never repeats and SmartIndex can not answer it; the few small-domain atoms
// (clicks, pos, region, spam) do repeat, but scan_cold's index budget evicts
// them long before they come round again.
func coldAtom(shape, r *rng) atom {
	// The literal sits at quantile q of its column: the top 1–15 % for ">",
	// the bottom 1–15 % for "<=", the same selectivity band as scan_hot's
	// head, so the two workloads differ in residency and not in result size.
	// The shape stream picks column, operator and q; the run seed moves q by
	// at most ±0.002.
	op, q := ">", 0.85+0.14*shape.float()
	if shape.u64()&1 == 0 {
		op, q = "<=", 1-q
	}
	q += 0.004 * (r.float() - 0.5)
	switch u := shape.float(); {
	case u < 0.30:
		return atom{col: cDwell, op: op, f: math.Floor(-math.Log(1-q)*60*64) / 64}
	case u < 0.60:
		return atom{col: cScore, op: op, f: math.Floor(q*65536) / 65536}
	case u < 0.80:
		return atom{col: cUID, op: op, i: int64(q * numUIDs)}
	case u < 0.88:
		return atom{col: cClicks, op: op, i: int64(-math.Log(1-q) * 4)}
	case u < 0.94:
		if op == ">" {
			return atom{col: cPos, op: op, i: int64(6 + shape.intn(4))}
		}
		return atom{col: cPos, op: "=", i: int64(3 + shape.intn(8))}
	case u < 0.98:
		return atom{col: cRegion, op: "=", s: regions[shape.intn(3)]}
	default:
		return atom{col: cSpam, op: "=", b: shape.u64()&1 == 0}
	}
}

// shapeSeed seeds the stream that decides the shape of every statement list:
// how many atoms a statement has, which, of what selectivity, and what it
// computes. It is the same for every run seed, so the amount of work in a
// list does not depend on the seed; the run seed moves the literals within
// narrow bands and shuffles the order. Ten runs on ten seeds then differ by
// the machine's noise and not by which seed drew the heavier statements.
const shapeSeed = 0x5eed

// shuffled puts the list in a seed-dependent order and numbers it.
func shuffled(r *rng, list []stmt) []stmt {
	for i := len(list) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		list[i], list[j] = list[j], list[i]
	}
	return number(list)
}

// sessionStmts builds the trial-and-error session stream of the two scan
// workloads: n statements of 1–3 atoms each, 70 % COUNT(*), 10 % SUM and
// 20 % projection with LIMIT 50. next supplies the atoms.
func sessionStmts(r *rng, n int, next func() atom) []stmt {
	list := make([]stmt, n)
	for i := range list {
		st := &list[i]
		k := 1
		switch u := r.float(); {
		case u >= 0.75:
			k = 3
		case u >= 0.30:
			k = 2
		}
		for len(st.atoms) < k {
			a := next()
			dup := false
			for _, b := range st.atoms {
				if a.col == b.col && a.op == b.op {
					dup = true
				}
			}
			if !dup {
				st.atoms = append(st.atoms, a)
			}
		}
		switch u := r.float(); {
		case u < 0.70:
			st.kind = kCount
		case u < 0.80:
			st.kind = kSum
			st.agg = cClicks
			if r.u64()&1 == 0 {
				st.agg = cDwell
			}
		default:
			st.kind = kProject
			st.cols = projectCols
			st.limit = 50
		}
	}
	return list
}

func scanHotStmts(seed uint64, n int) []stmt {
	shape, r := newRNG(shapeSeed, streamStmts), newRNG(seed, streamStmts)
	pool := hotPool(r)
	z := newZipf(len(pool), 1.2)
	return shuffled(r, sessionStmts(shape, n, func() atom { return pool[z.draw(shape)] }))
}

func scanColdStmts(seed uint64, n int) []stmt {
	shape, r := newRNG(shapeSeed, streamStmts), newRNG(seed, streamStmts)
	return shuffled(r, sessionStmts(shape, n, func() atom { return coldAtom(shape, r) }))
}

// shuffleStmts builds shuffle_tcp's list: n/3 × (A, A, B). Class A is a
// high-cardinality GROUP BY (uid, then url) with two aggregates and a fully
// ordered top 20 over a ts window of half a partition; class B joins a
// quarter-partition ts window of logs with all of users and groups by
// segment. Both run as repartition shuffles: the planner decides that from
// the cataloged table sizes, not from the window. Literals vary from
// statement to statement.
func shuffleStmts(seed uint64, n int) []stmt {
	shape, r := newRNG(shapeSeed, streamStmts), newRNG(seed, streamStmts)
	// The shape stream places the window; the run seed moves it by up to 63
	// rows and the score literal by up to 255/65536.
	window := func(rows int) []atom {
		lo := int64(shape.intn(logRows-rows-64) + r.intn(64))
		return []atom{{col: cTs, op: ">=", i: lo}, {col: cTs, op: "<", i: lo + int64(rows)}}
	}
	score := func() atom {
		return atom{col: cScore, op: ">", f: float64(shape.intn(16384)+r.intn(256)) / 65536}
	}
	var list []stmt
	for len(list) < n {
		list = append(list,
			stmt{kind: kTop, group: cUID, agg: cClicks, limit: 20, class: 0,
				atoms: append(window(partRows/2), score())},
			stmt{kind: kTop, group: cURL, agg: cDwell, limit: 20, class: 0,
				atoms: append(window(partRows/2), atom{col: cPos, op: "<=", i: int64(5 + shape.intn(6))})},
			stmt{kind: kJoin, agg: cClicks, class: 1,
				atoms: append(window(partRows/4), score())},
		)
	}
	return number(list[:n])
}

// dashWindowStart is the first ts the dashboard panel looks at: the last two
// base partitions plus whatever ingest has added since. Footer statistics
// prune the fourteen partitions before it.
const dashWindowStart = int64(logRows - 2*partRows)

// dashPanel returns the 8-statement panel for pass 0..3 of a cycle. Six
// statements are the same on every pass (pass 0 misses, passes 1–3 hit
// exactly); the last two are pure selections whose literal narrows with the
// pass, so passes 1–3 are answered by subsumption from pass 0's result.
func dashPanel(pass int) []stmt {
	w := atom{col: cTs, op: ">=", i: dashWindowStart}
	class := 0
	if pass > 0 {
		class = 1
	}
	list := []stmt{
		{kind: kCount, atoms: []atom{w}},
		{kind: kGroup, group: cRegion, agg: cClicks, atoms: []atom{w}},
		{kind: kGroup, group: cPos, agg: cDwell, atoms: []atom{w}},
		{kind: kCount, atoms: []atom{w, {col: cSpam, op: "=", b: true}}},
		{kind: kCount, atoms: []atom{w, {col: cClicks, op: ">", i: 8}}},
		{kind: kGroup, group: cRegion, agg: cDwell, atoms: []atom{w, {col: cPos, op: "<=", i: 3}}},
		{kind: kSelect, cols: []col{cTs, cClicks, cPos}, atoms: []atom{w, {col: cClicks, op: ">", i: int64(18 + 2*pass)}}},
		{kind: kSelect, cols: []col{cTs, cDwell, cRegion}, atoms: []atom{w, {col: cDwell, op: ">", f: float64(240 + 30*pass)}}},
	}
	for i := range list {
		list[i].class = class
	}
	return list
}

// dashStmts is one dash_ingest cycle: the panel four times over.
func dashStmts() []stmt {
	var list []stmt
	for pass := 0; pass < 4; pass++ {
		list = append(list, dashPanel(pass)...)
	}
	return number(list)
}

// sentinels returns the twelve statements whose answers the checker computes
// itself, over whatever rows are live. withJoin swaps one GROUP BY for the
// repartition join (only shuffle_tcp loads users).
func sentinels(withJoin bool) []stmt {
	list := []stmt{
		{kind: kCount},
		{kind: kCount, atoms: []atom{{col: cClicks, op: ">", i: 5}}},
		{kind: kCount, atoms: []atom{{col: cRegion, op: "=", s: regions[1]}, {col: cSpam, op: "=", b: false}}},
		{kind: kCount, atoms: []atom{{col: cDwell, op: "<=", f: 42.5}, {col: cScore, op: ">", f: 0.625}, {col: cPos, op: "<=", i: 4}}},
		{kind: kCount, atoms: []atom{{col: cTs, op: ">=", i: 3 * partRows}, {col: cTs, op: "<", i: 5*partRows + 100}}},
		{kind: kCount, atoms: []atom{{col: cUID, op: "=", i: 4242}}},
		{kind: kSum, agg: cClicks, atoms: []atom{{col: cPos, op: "=", i: 1}}},
		{kind: kSum, agg: cDwell, atoms: []atom{{col: cClicks, op: ">=", i: 10}}},
		{kind: kSum, agg: cScore, atoms: []atom{{col: cRegion, op: "=", s: regions[2]}, {col: cDwell, op: ">", f: 200}}},
		{kind: kProject, cols: projectCols, limit: 50, atoms: []atom{{col: cClicks, op: ">", i: 40}}},
		{kind: kGroup, group: cRegion, agg: cClicks, atoms: []atom{{col: cScore, op: "<=", f: 0.5}}},
		{kind: kTop, group: cURL, agg: cDwell, limit: 20, atoms: []atom{{col: cPos, op: "<=", i: 2}}},
	}
	if withJoin {
		list[10] = stmt{kind: kJoin, agg: cClicks, atoms: []atom{{col: cTs, op: "<", i: 2 * partRows}}}
	}
	return number(list)
}
