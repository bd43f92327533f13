package main

// check.go is the answer checker. Every result is reduced to an answer (row
// count and checksum) as it arrives; the checker computes the answer it
// expects from the generator's own copy of the rows, in plain Go loops, or
// compares the answers of repeated executions with one another.

import (
	"math"
	"sort"

	"repro/internal/exec"
	"repro/internal/types"
)

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func hashU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime
}

// hashValue folds one typed value into h. The type tag keeps BIGINT 3,
// DOUBLE 3.0 and '3' apart.
func hashValue(h uint64, v types.Value) uint64 {
	h = (h ^ uint64(v.T)) * fnvPrime
	switch v.T {
	case types.Int64:
		return hashU64(h, uint64(v.I))
	case types.Float64:
		return hashU64(h, math.Float64bits(v.F))
	case types.String:
		return hashString(h, v.S)
	case types.Bool:
		if v.B {
			return (h ^ 1) * fnvPrime
		}
	}
	return h
}

func hashRow(row []types.Value) uint64 {
	h := fnvOffset
	for _, v := range row {
		h = hashValue(h, v)
	}
	return h
}

// answer is what the checker keeps of one result. sum is the wrapping sum of
// the row hashes, so it does not depend on row order, except for kTop, whose
// ORDER BY is total: there the row hashes are chained in order.
type answer struct {
	rows int
	sum  uint64
}

func (a *answer) add(kind stmtKind, rowHash uint64) {
	a.rows++
	if kind == kTop {
		a.sum = hashU64(a.sum, rowHash)
	} else {
		a.sum += rowHash
	}
}

// checker owns the generator's copy of every row that was ever in logs.
type checker struct {
	base     []*segment
	ingested []*segment // every ingested batch, in ingest order
	users    *userTable
}

// liveIngested is the retention window of dash_ingest: the catalog keeps the
// base partitions and the newest eight ingested ones.
const liveIngested = 8

// live returns the segments in the catalog once n batches have been
// ingested.
func (c *checker) live(n int) []*segment {
	first := n - liveIngested
	if first < 0 {
		first = 0
	}
	return append(append([]*segment(nil), c.base...), c.ingested[first:n]...)
}

// find locates the generated row with the given ts.
func (c *checker) find(ts int64) (*segment, int, bool) {
	if ts < 0 {
		return nil, 0, false
	}
	if ts < logRows {
		return c.base[ts/partRows], int(ts % partRows), true
	}
	b := (ts - logRows) / batchRows
	if b >= int64(len(c.ingested)) {
		return nil, 0, false
	}
	return c.ingested[b], int((ts - logRows) % batchRows), true
}

// cell returns column col of generated row r as the engine would type it.
func (s *segment) cell(c col, r int) types.Value {
	switch colType[c] {
	case types.Int64:
		return types.NewInt(s.ints[c][r])
	case types.Float64:
		return types.NewFloat(s.flts[c][r])
	case types.String:
		return types.NewString(s.strs[c][r])
	default:
		return types.NewBool(s.spam[r])
	}
}

func (st *stmt) matches(s *segment, r int) bool {
	for _, a := range st.atoms {
		if !a.match(s, r) {
			return false
		}
	}
	return true
}

// observe reduces a result to its answer. A projection with LIMIT and no
// ORDER BY may legitimately return any matching rows, so its rows are
// validated one by one instead of being checksummed: each must be a distinct
// generated row, carry that row's values and satisfy every atom. ok is false
// when a row fails that test or the result has the wrong shape.
func (c *checker) observe(st *stmt, res *exec.Result) (answer, bool) {
	var a answer
	if st.kind != kProject {
		for _, row := range res.Rows {
			a.add(st.kind, hashRow(row))
		}
		return a, true
	}
	if len(res.Rows) > st.limit {
		return a, false
	}
	var seen [64]int64
	for i, row := range res.Rows {
		if len(row) != len(st.cols) || row[0].T != types.Int64 {
			return a, false
		}
		ts := row[0].I
		seg, r, found := c.find(ts)
		if !found || !st.matches(seg, r) {
			return a, false
		}
		for j, col := range st.cols {
			if !types.Equal(row[j], seg.cell(col, r)) || row[j].T != colType[col] {
				return a, false
			}
		}
		for _, prev := range seen[:i] {
			if prev == ts {
				return a, false
			}
		}
		seen[i] = ts
		a.rows++
	}
	return a, true
}

// mayMatch reports whether any row of the segment can satisfy the
// statement's ts atoms; ts is monotone, so most segments are skipped whole.
func (st *stmt) mayMatch(s *segment) bool {
	lo, hi := s.tsRange()
	for _, a := range st.atoms {
		if a.col != cTs {
			continue
		}
		switch a.op {
		case ">=":
			if hi < a.i {
				return false
			}
		case ">":
			if hi <= a.i {
				return false
			}
		case "<":
			if lo >= a.i {
				return false
			}
		case "<=":
			if lo > a.i {
				return false
			}
		}
	}
	return true
}

// group is one GROUP BY bucket of the checker's own evaluation.
type group struct {
	key   types.Value
	count int64
	sumI  int64
	sumF  float64
}

func sumValue(agg col, sumI int64, sumF float64) types.Value {
	if colType[agg] == types.Float64 {
		return types.NewFloat(sumF)
	}
	return types.NewInt(sumI)
}

// accum is the checker's running evaluation of one statement: feed it
// segments, then ask for the answer. It can be cloned, so dash_ingest's
// checker evaluates the base partitions once and only the ingested batches
// anew for every cycle.
type accum struct {
	st     *stmt
	users  *userTable
	count  int64
	sumI   int64
	sumF   float64
	sel    answer // kSelect: the matching rows so far
	groups map[types.Value]*group
}

func (c *checker) newAccum(st *stmt) *accum {
	return &accum{st: st, users: c.users, groups: map[types.Value]*group{}}
}

func (a *accum) clone() *accum {
	b := *a
	b.groups = make(map[types.Value]*group, len(a.groups))
	for k, g := range a.groups {
		cp := *g
		b.groups[k] = &cp
	}
	return &b
}

// add evaluates the statement over one segment in plain Go.
func (a *accum) add(s *segment) {
	st := a.st
	if !st.mayMatch(s) {
		return
	}
	for r := 0; r < s.n; r++ {
		if !st.matches(s, r) {
			continue
		}
		a.count++
		switch st.kind {
		case kSum:
			if colType[st.agg] == types.Float64 {
				a.sumF += s.flts[st.agg][r]
			} else {
				a.sumI += s.ints[st.agg][r]
			}
		case kSelect:
			row := make([]types.Value, len(st.cols))
			for j, col := range st.cols {
				row[j] = s.cell(col, r)
			}
			a.sel.add(kSelect, hashRow(row))
		case kGroup, kTop, kJoin:
			var key types.Value
			if st.kind == kJoin {
				key = types.NewString(a.users.segment[s.ints[cUID][r]])
			} else {
				key = s.cell(st.group, r)
			}
			g := a.groups[key]
			if g == nil {
				g = &group{key: key}
				a.groups[key] = g
			}
			g.count++
			if colType[st.agg] == types.Float64 {
				g.sumF += s.flts[st.agg][r]
			} else {
				g.sumI += s.ints[st.agg][r]
			}
		}
	}
}

// answer is what the engine must produce for the segments added so far.
func (a *accum) answer() answer {
	st := a.st
	var out answer
	switch st.kind {
	case kCount:
		out.add(kCount, hashRow([]types.Value{types.NewInt(a.count)}))
	case kSum:
		v := types.NullValue() // SUM over no rows is NULL
		if a.count > 0 {
			v = sumValue(st.agg, a.sumI, a.sumF)
		}
		out.add(kSum, hashRow([]types.Value{v}))
	case kProject:
		out.rows = int(min(a.count, int64(st.limit)))
	case kSelect:
		out = a.sel
	case kGroup, kTop, kJoin:
		list := make([]*group, 0, len(a.groups))
		for _, g := range a.groups {
			list = append(list, g)
		}
		if st.kind == kTop {
			sort.Slice(list, func(i, j int) bool {
				if list[i].count != list[j].count {
					return list[i].count > list[j].count
				}
				cmp, _ := types.Compare(list[i].key, list[j].key)
				return cmp < 0
			})
			if len(list) > st.limit {
				list = list[:st.limit]
			}
		}
		for _, g := range list {
			out.add(st.kind, hashRow([]types.Value{g.key, types.NewInt(g.count), sumValue(st.agg, g.sumI, g.sumF)}))
		}
	}
	return out
}

// expect evaluates the statement over the live segments and returns the
// answer the engine must produce.
func (c *checker) expect(st *stmt, live []*segment) answer {
	a := c.newAccum(st)
	for _, s := range live {
		a.add(s)
	}
	return a.answer()
}
