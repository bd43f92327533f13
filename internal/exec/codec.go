package exec

// Wire and spill form of partial results. Rows travel as a types batch;
// groups travel as key columns plus, per aggregate, the Cell fields as
// columns (counts and integer sums as narrow fixed-width arrays, float sums
// only when a group has one, the float flag bit-packed, Min and Max as Value
// columns). Decoding slab-allocates the Values, Cells and
// Groups of a frame and rebuilds the map keys, which are derived state.
// TaskResult implements gob.GobEncoder/GobDecoder with this form, so every
// message that carries a result ships it as one opaque byte field and gob
// never reflects over a Value.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/types"
)

func corruptResult(what string) error {
	return fmt.Errorf("%w: %s", types.ErrCorruptBatch, what)
}

// cellMinBytes is what one aggregate's columns occupy per group at least: a
// byte each of Count and SumI (the rest can be less than a byte per group).
const cellMinBytes = 2

// AppendGroups appends the columnar encoding of groups. Every group must
// have as many keys, and as many cells, as the first.
func AppendGroups(dst []byte, groups []Group) ([]byte, error) {
	if groups == nil {
		return append(dst, 0), nil
	}
	n := len(groups)
	dst = binary.AppendUvarint(dst, uint64(n)+1)
	if n == 0 {
		return dst, nil
	}
	nk, na := len(groups[0].Keys), len(groups[0].Cells)
	for i := range groups {
		if len(groups[i].Keys) != nk || len(groups[i].Cells) != na {
			return nil, fmt.Errorf("exec: encode groups: group %d has %d keys and %d cells, want %d and %d",
				i, len(groups[i].Keys), len(groups[i].Cells), nk, na)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(nk))
	dst = binary.AppendUvarint(dst, uint64(na))
	col := make([]types.Value, n)
	ints := make([]int64, n)
	for k := 0; k < nk; k++ {
		for i := range groups {
			col[i] = groups[i].Keys[k]
		}
		dst = types.AppendColumn(dst, col)
	}
	for a := 0; a < na; a++ {
		for i := range groups {
			ints[i] = groups[i].Cells[a].Count
		}
		dst = types.AppendInts(dst, ints)
		for i := range groups {
			ints[i] = groups[i].Cells[a].SumI
		}
		dst = types.AppendInts(dst, ints)
		// Float sums: nothing at all while no group of the frame has one.
		anyF := false
		for i := range groups {
			anyF = anyF || math.Float64bits(groups[i].Cells[a].SumF) != 0
		}
		if anyF {
			dst = append(dst, 1)
			for i := range groups {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(groups[i].Cells[a].SumF))
			}
		} else {
			dst = append(dst, 0)
		}
		start := len(dst)
		dst = append(dst, make([]byte, (n+7)/8)...)
		for i := range groups {
			if groups[i].Cells[a].Float {
				dst[start+i>>3] |= 1 << (i & 7)
			}
		}
		for i := range groups {
			col[i] = groups[i].Cells[a].Min
		}
		dst = types.AppendColumn(dst, col)
		for i := range groups {
			col[i] = groups[i].Cells[a].Max
		}
		dst = types.AppendColumn(dst, col)
	}
	return dst, nil
}

// DecodeGroups decodes one AppendGroups encoding and returns the unread
// rest. The groups' keys share one slab of Values and their cells another.
func DecodeGroups(src []byte) ([]Group, []byte, error) {
	n1, src, err := types.ReadUvarint(src)
	if err != nil {
		return nil, nil, err
	}
	if n1 == 0 {
		return nil, src, nil
	}
	if n1 == 1 {
		return []Group{}, src, nil
	}
	if n1-1 > uint64(len(src))*8 {
		return nil, nil, corruptResult("group count exceeds input")
	}
	n := int(n1 - 1)
	nk, src, err := types.ReadCount(src)
	if err != nil {
		return nil, nil, err
	}
	na, src, err := types.ReadCount(src)
	if err != nil {
		return nil, nil, err
	}
	if nk*types.ColumnMinBytes(n) > len(src) || na > len(src)/cellMinBytes/n {
		return nil, nil, corruptResult("group shape exceeds input")
	}
	groups := make([]Group, n)
	keys := make([]types.Value, n*nk)
	cells := make([]Cell, n*na)
	col := make([]types.Value, n)
	ints := make([]int64, n)
	for i := range groups {
		groups[i].Keys = keys[i*nk : (i+1)*nk : (i+1)*nk]
		groups[i].Cells = cells[i*na : (i+1)*na : (i+1)*na]
	}
	for k := 0; k < nk; k++ {
		if src, err = types.DecodeColumn(src, keys[k:], n, nk); err != nil {
			return nil, nil, err
		}
	}
	nb := (n + 7) / 8
	for a := 0; a < na; a++ {
		if src, err = types.DecodeInts(src, ints); err != nil {
			return nil, nil, err
		}
		for i, v := range ints {
			cells[i*na+a].Count = v
		}
		if src, err = types.DecodeInts(src, ints); err != nil {
			return nil, nil, err
		}
		for i, v := range ints {
			cells[i*na+a].SumI = v
		}
		if len(src) < 1 || src[0] > 1 {
			return nil, nil, corruptResult("bad float-sum flag")
		}
		if hasF := src[0] == 1; hasF {
			if len(src[1:])/8 < n {
				return nil, nil, corruptResult("truncated float sums")
			}
			for i := 0; i < n; i++ {
				cells[i*na+a].SumF = math.Float64frombits(binary.LittleEndian.Uint64(src[1+i*8:]))
			}
			src = src[1+n*8:]
		} else {
			src = src[1:]
		}
		if len(src) < nb {
			return nil, nil, corruptResult("truncated float flags")
		}
		for i := 0; i < n; i++ {
			cells[i*na+a].Float = src[i>>3]&(1<<(i&7)) != 0
		}
		src = src[nb:]
		if src, err = types.DecodeColumn(src, col, n, 1); err != nil {
			return nil, nil, err
		}
		for i := range col {
			cells[i*na+a].Min = col[i]
		}
		if src, err = types.DecodeColumn(src, col, n, 1); err != nil {
			return nil, nil, err
		}
		for i := range col {
			cells[i*na+a].Max = col[i]
		}
	}
	return groups, src, nil
}

// GobEncode implements gob.GobEncoder: scan statistics as varints, the rows
// as a batch, then the groups (NumAggs and the columnar group list).
func (r *TaskResult) GobEncode() ([]byte, error) {
	var b []byte
	for _, v := range r.Stats.fields() {
		b = binary.AppendVarint(b, *v)
	}
	b = types.AppendRows(b, r.Rows)
	if r.Groups == nil {
		return append(b, 0), nil
	}
	b = append(b, 1)
	b = binary.AppendVarint(b, int64(r.Groups.NumAggs))
	var list []Group
	if r.Groups.M != nil {
		list = make([]Group, 0, len(r.Groups.M))
		for _, g := range r.Groups.M {
			list = append(list, *g)
		}
	}
	return AppendGroups(b, list)
}

// GobDecode implements gob.GobDecoder.
func (r *TaskResult) GobDecode(b []byte) error {
	var (
		out TaskResult
		err error
	)
	for _, v := range out.Stats.fields() {
		if *v, b, err = types.ReadVarint(b); err != nil {
			return err
		}
	}
	if out.Rows, b, err = types.DecodeRows(b); err != nil {
		return err
	}
	if len(b) < 1 || b[0] > 1 {
		return corruptResult("bad groups flag")
	}
	if b[0] == 1 {
		numAggs, rest, err := types.ReadVarint(b[1:])
		if err != nil {
			return err
		}
		list, rest, err := DecodeGroups(rest)
		if err != nil {
			return err
		}
		b = rest
		out.Groups = &Groups{NumAggs: int(numAggs)}
		if list != nil {
			out.Groups.M = make(map[string]*Group, len(list))
			out.Groups.adopt(list)
		}
	} else {
		b = b[1:]
	}
	if len(b) != 0 {
		return corruptResult("trailing bytes after result")
	}
	*r = out
	return nil
}

// adopt inserts decoded groups under their (re-derived) keys. The keys of
// one call share a single string allocation.
func (g *Groups) adopt(list []Group) {
	var buf []byte
	ends := make([]int, len(list))
	for i := range list {
		buf = AppendGroupKey(buf, list[i].Keys)
		ends[i] = len(buf)
	}
	all := string(buf)
	start := 0
	for i := range list {
		g.M[all[start:ends[i]]] = &list[i]
		start = ends[i]
	}
}

// fields lists the counters in wire order.
func (s *ScanStats) fields() [10]*int64 {
	return [10]*int64{&s.BlocksTotal, &s.BlocksPruned, &s.BlocksEmpty, &s.IndexHits, &s.IndexMisses,
		&s.ColumnReads, &s.RowsScanned, &s.RowsSelected, &s.RowsEmitted, &s.ShortCircuits}
}
