package exec

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// Shuffle operators: the reducer side of a hash-partitioned repartition.
// Map tasks (ordinary RunTaskModel scans over the planner's derived
// sub-plans) emit rows laid out as [key values..., shipped columns...];
// leaves route each row to a partition with ShufflePartition; the reducer
// owning a partition pushes the staged rows through a PartitionedHashJoin
// (repartition joins) or a PartitionedAgg (group-by shuffles). Operators
// take a memory grant and grace-hash spill to a SpillStore when the
// resident build state outgrows it; spill I/O is charged through
// sim.Bill.ChargeSpill so tests can assert billed bytes == written bytes.

// spillFanout is the grace-hash sub-bucket count per spill level.
const spillFanout = 4

// maxSpillDepth bounds grace-hash recursion: an overflowing sub-bucket is
// re-partitioned at most once more; beyond that it is processed in memory
// regardless of the grant (matching one-level recursive grace hash).
const maxSpillDepth = 1

// hashPartKey maps an encoded group key to a partition. The salt separates
// the shuffle's routing hash from the grace-hash bucket hashes so a spill
// level does not degenerate into a single bucket.
func hashPartKey(key string, salt uint64, parts int) int {
	if parts <= 1 {
		return 0
	}
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], salt)
	h.Write(b[:])
	io.WriteString(h, key)
	return int(h.Sum64() % uint64(parts))
}

// ShufflePartition routes one map-output row: hash of the leading `keys`
// values, modulo `parts`. Deterministic across processes and retries.
func ShufflePartition(row []types.Value, keys, parts int) int {
	return hashPartKey(GroupKey(row[:keys]), 0, parts)
}

// GroupShufflePartition routes one partial group by its key values.
func GroupShufflePartition(keys []types.Value, parts int) int {
	return hashPartKey(GroupKey(keys), 0, parts)
}

// KeyShufflePartition is GroupShufflePartition for a caller that already
// holds the group's encoded key (the Groups map key).
func KeyShufflePartition(key string, parts int) int {
	return hashPartKey(key, 0, parts)
}

// SpillStore persists row chunks for grace-hash spilling. Implementations
// must return exactly the rows written for a handle, in order.
type SpillStore interface {
	Write(rows [][]types.Value) (handle string, bytes int64, err error)
	Read(handle string) (rows [][]types.Value, bytes int64, err error)
}

// MemSpillStore is an in-memory SpillStore for tests and local execution.
type MemSpillStore struct {
	chunks  map[string][][]types.Value
	sizes   map[string]int64
	next    int
	Written int64 // total bytes accepted, for billing assertions
}

// NewMemSpillStore returns an empty in-memory spill store.
func NewMemSpillStore() *MemSpillStore {
	return &MemSpillStore{chunks: make(map[string][][]types.Value), sizes: make(map[string]int64)}
}

// Write implements SpillStore.
func (m *MemSpillStore) Write(rows [][]types.Value) (string, int64, error) {
	var n int64
	for _, r := range rows {
		n += estimateRow(r)
	}
	h := fmt.Sprintf("mem-%d", m.next)
	m.next++
	m.chunks[h] = rows
	m.sizes[h] = n
	m.Written += n
	return h, n, nil
}

// Read implements SpillStore.
func (m *MemSpillStore) Read(handle string) ([][]types.Value, int64, error) {
	rows, ok := m.chunks[handle]
	if !ok {
		return nil, 0, fmt.Errorf("exec: unknown spill chunk %q", handle)
	}
	return rows, m.sizes[handle], nil
}

// ShuffleBilling carries the cost hooks shared by the shuffle operators.
// Model/Bill may be nil (no accounting); OnSpill, when set, observes each
// spill write (the cluster layer turns it into shuffle.spill events).
type ShuffleBilling struct {
	Model   *sim.CostModel
	Bill    *sim.Bill
	OnSpill func(bytes int64)
}

func (b ShuffleBilling) chargeSpill(n int64) {
	if b.Bill != nil && b.Model != nil {
		b.Bill.ChargeSpill(b.Model, sim.DeviceHDD, n)
	}
	if b.OnSpill != nil {
		b.OnSpill(n)
	}
}

func (b ShuffleBilling) chargeReadBack(n int64) {
	if b.Bill != nil && b.Model != nil {
		b.Bill.ChargeRead(b.Model, sim.DeviceHDD, n)
	}
}

// shuffleEnv evaluates reducer-side expressions over one joined row: shipped
// probe and build columns resolved by name, NULL for the null-extended side
// of an outer join. Repeated columns never cross a shuffle (the planner
// rejects WITHIN), so Repeated always errors.
type shuffleEnv struct {
	cols map[plan.ColRef]types.Value
}

func (e *shuffleEnv) Col(table, col string) (types.Value, error) {
	v, ok := e.cols[plan.ColRef{Table: table, Col: col}]
	if !ok {
		return types.Value{}, fmt.Errorf("exec: column %s.%s not shipped through shuffle", table, col)
	}
	return v, nil
}

func (e *shuffleEnv) Repeated(table, col string) ([]types.Value, error) {
	return nil, fmt.Errorf("exec: repeated column %s.%s cannot cross a shuffle", table, col)
}

func (e *shuffleEnv) Sub(sqlparser.Expr) (types.Value, bool) { return types.Value{}, false }

// clauseTrue evaluates one CNF clause (disjunction of atoms and opaque
// expressions) under the filter boundary's unknown-is-false rule.
func clauseTrue(cl plan.Clause, env Env) (bool, error) {
	for _, a := range cl.Atoms {
		v, err := env.Col(a.Table, a.Col)
		if err != nil {
			return false, err
		}
		if plan.EvalAtom(a, v) {
			return true, nil
		}
	}
	for _, op := range cl.Opaque {
		ok, err := EvalBool(op, env)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// clausesTrue reports whether every clause holds (a conjunction: residual ON
// conditions, post-join filters).
func clausesTrue(cls []plan.Clause, env Env) (bool, error) {
	for _, cl := range cls {
		if ok, err := clauseTrue(cl, env); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// joinState sequences the operator's push protocol.
type joinState int

const (
	stateBuild joinState = iota
	stateProbe
	stateFlushed
)

// PartitionedHashJoin joins one shuffle partition: PushBuild all build-side
// rows, then PushProbe the probe-side rows, then Flush. The build hash
// table lives under the memory grant; on overflow the operator grace-hash
// partitions build AND probe rows into spill sub-buckets and joins them
// bucket-by-bucket at Flush. Results are identical either way, and
// deterministic: buckets are processed in fixed order and right-outer
// unmatched rows are emitted in build arrival order.
type PartitionedHashJoin struct {
	p       *plan.PhysicalPlan
	sh      *plan.ShuffleSpec
	grant   int64
	spill   SpillStore
	billing ShuffleBilling

	state joinState
	// in-memory build side
	build [][]types.Value
	table map[string][]int
	bytes int64
	// right-outer match tracking for the in-memory path
	matched []bool
	// spill state: per sub-bucket chunk handles
	spilled      bool
	buildChunks  [][]string
	probeChunks  [][]string
	SpilledBytes int64

	out *TaskResult
}

// NewPartitionedHashJoin builds the reducer join operator for one partition
// of the plan's shuffle. A nil spill store disables spilling (the grant is
// ignored); grant <= 0 with a store spills immediately.
func NewPartitionedHashJoin(p *plan.PhysicalPlan, spill SpillStore, billing ShuffleBilling) *PartitionedHashJoin {
	j := &PartitionedHashJoin{
		p:       p,
		sh:      p.Shuffle,
		grant:   p.Shuffle.MemoryGrant,
		spill:   spill,
		billing: billing,
		table:   make(map[string][]int),
		out:     &TaskResult{},
	}
	if p.Mode == plan.ModeAgg {
		j.out.Groups = NewGroups(len(p.Aggs))
	}
	return j
}

// PushBuild stages build-side rows ([keys..., build ship columns...]).
func (j *PartitionedHashJoin) PushBuild(rows [][]types.Value) error {
	if j.state != stateBuild {
		return fmt.Errorf("exec: PushBuild after probe phase started")
	}
	if j.spilled {
		return j.spillRows(rows, &j.buildChunks)
	}
	for _, r := range rows {
		j.build = append(j.build, r)
		j.bytes += estimateRow(r)
	}
	if j.spill != nil && j.bytes > j.grant {
		// Grace-hash overflow: move the whole resident build side out.
		j.spilled = true
		j.buildChunks = make([][]string, spillFanout)
		j.probeChunks = make([][]string, spillFanout)
		staged := j.build
		j.build, j.bytes = nil, 0
		if err := j.spillRows(staged, &j.buildChunks); err != nil {
			return err
		}
	}
	return nil
}

// PushProbe streams probe-side rows; the build side is implicitly complete
// after the first call. In-memory builds join immediately; spilled builds
// buffer the probe rows into matching sub-buckets.
func (j *PartitionedHashJoin) PushProbe(rows [][]types.Value) error {
	switch j.state {
	case stateFlushed:
		return fmt.Errorf("exec: PushProbe after Flush")
	case stateBuild:
		j.state = stateProbe
		if !j.spilled {
			j.indexBuild()
		}
	}
	if j.spilled {
		return j.spillRows(rows, &j.probeChunks)
	}
	for _, r := range rows {
		if err := j.probeRow(j.table, j.build, j.matched, r); err != nil {
			return err
		}
	}
	return nil
}

// Flush completes the join and returns the partition's result. For spilled
// operators this is where the sub-buckets are read back and joined.
func (j *PartitionedHashJoin) Flush() (*TaskResult, error) {
	if j.state == stateFlushed {
		return nil, fmt.Errorf("exec: double Flush")
	}
	if j.state == stateBuild && !j.spilled {
		j.indexBuild()
	}
	j.state = stateFlushed
	if !j.spilled {
		if err := j.emitRightUnmatched(j.build, j.matched); err != nil {
			return nil, err
		}
		return j.out, nil
	}
	for b := 0; b < spillFanout; b++ {
		build, err := j.readChunks(j.buildChunks[b])
		if err != nil {
			return nil, err
		}
		probe, err := j.readChunks(j.probeChunks[b])
		if err != nil {
			return nil, err
		}
		if err := j.joinBucket(build, probe, 1); err != nil {
			return nil, err
		}
	}
	return j.out, nil
}

func (j *PartitionedHashJoin) indexBuild() {
	for i, r := range j.build {
		k := GroupKey(r[:j.sh.Keys])
		j.table[k] = append(j.table[k], i)
	}
	if j.sh.JoinType == sqlparser.JoinRightOuter {
		j.matched = make([]bool, len(j.build))
	}
}

// spillRows partitions a batch by grace hash (salt 1) and writes one chunk
// per non-empty sub-bucket.
func (j *PartitionedHashJoin) spillRows(rows [][]types.Value, chunks *[][]string) error {
	parts := make([][][]types.Value, spillFanout)
	for _, r := range rows {
		b := hashPartKey(GroupKey(r[:j.sh.Keys]), 1, spillFanout)
		parts[b] = append(parts[b], r)
	}
	for b, p := range parts {
		if len(p) == 0 {
			continue
		}
		h, n, err := j.spill.Write(p)
		if err != nil {
			return err
		}
		(*chunks)[b] = append((*chunks)[b], h)
		j.SpilledBytes += n
		j.billing.chargeSpill(n)
	}
	return nil
}

func (j *PartitionedHashJoin) readChunks(handles []string) ([][]types.Value, error) {
	var rows [][]types.Value
	for _, h := range handles {
		chunk, n, err := j.spill.Read(h)
		if err != nil {
			return nil, err
		}
		j.billing.chargeReadBack(n)
		rows = append(rows, chunk...)
	}
	return rows, nil
}

// joinBucket joins one grace-hash sub-bucket, recursing one more level if
// the bucket's build side still exceeds the grant.
func (j *PartitionedHashJoin) joinBucket(build, probe [][]types.Value, depth int) error {
	if depth <= maxSpillDepth {
		var n int64
		for _, r := range build {
			n += estimateRow(r)
		}
		if n > j.grant {
			// Re-partition with the next salt level; sub-sub-buckets are
			// joined unconditionally (one-level recursion).
			salt := uint64(depth + 1)
			bparts := make([][][]types.Value, spillFanout)
			pparts := make([][][]types.Value, spillFanout)
			for _, r := range build {
				b := hashPartKey(GroupKey(r[:j.sh.Keys]), salt, spillFanout)
				bparts[b] = append(bparts[b], r)
			}
			for _, r := range probe {
				b := hashPartKey(GroupKey(r[:j.sh.Keys]), salt, spillFanout)
				pparts[b] = append(pparts[b], r)
			}
			for b := 0; b < spillFanout; b++ {
				if err := j.joinBucket(bparts[b], pparts[b], depth+1); err != nil {
					return err
				}
			}
			return nil
		}
	}
	table := make(map[string][]int, len(build))
	for i, r := range build {
		k := GroupKey(r[:j.sh.Keys])
		table[k] = append(table[k], i)
	}
	var matched []bool
	if j.sh.JoinType == sqlparser.JoinRightOuter {
		matched = make([]bool, len(build))
	}
	for _, r := range probe {
		if err := j.probeRow(table, build, matched, r); err != nil {
			return err
		}
	}
	return j.emitRightUnmatched(build, matched)
}

// probeRow joins one probe row against a build table. NULL key values never
// join (SQL equality is unknown); LEFT OUTER preserves the probe row with a
// null-extended build side.
func (j *PartitionedHashJoin) probeRow(table map[string][]int, build [][]types.Value, matched []bool, row []types.Value) error {
	nullKey := false
	for _, v := range row[:j.sh.Keys] {
		if v.IsNull() {
			nullKey = true
			break
		}
	}
	var cands []int
	if !nullKey {
		cands = table[GroupKey(row[:j.sh.Keys])]
	}
	any := false
	for _, bi := range cands {
		env := j.envFor(row, build[bi])
		ok, err := clausesTrue(j.sh.Residual, env)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		any = true
		if matched != nil {
			matched[bi] = true
		}
		if err := j.emit(env); err != nil {
			return err
		}
	}
	if !any && j.sh.JoinType == sqlparser.JoinLeftOuter {
		return j.emit(j.envFor(row, nil))
	}
	return nil
}

// emitRightUnmatched null-extends build rows no probe row matched, in build
// arrival order (determinism).
func (j *PartitionedHashJoin) emitRightUnmatched(build [][]types.Value, matched []bool) error {
	if j.sh.JoinType != sqlparser.JoinRightOuter || matched == nil {
		return nil
	}
	for i, ok := range matched {
		if ok {
			continue
		}
		if err := j.emit(j.envFor(nil, build[i])); err != nil {
			return err
		}
	}
	return nil
}

// envFor lays out one joined row. A nil probe or build side null-extends
// its shipped columns (outer-join preservation).
func (j *PartitionedHashJoin) envFor(probe, build []types.Value) *shuffleEnv {
	cols := make(map[plan.ColRef]types.Value, len(j.sh.ProbeCols)+len(j.sh.BuildCols))
	for i, r := range j.sh.ProbeCols {
		if probe == nil {
			cols[r] = types.NullValue()
		} else {
			cols[r] = probe[j.sh.Keys+i]
		}
	}
	for i, r := range j.sh.BuildCols {
		if build == nil {
			cols[r] = types.NullValue()
		} else {
			cols[r] = build[j.sh.Keys+i]
		}
	}
	return &shuffleEnv{cols: cols}
}

// emit applies the top plan's post-join clauses, then either folds the row
// into the partial aggregation or projects the output expressions —
// mirroring the broadcast scanner's emitJoined.
func (j *PartitionedHashJoin) emit(env Env) error {
	if ok, err := clausesTrue(j.p.Post, env); err != nil || !ok {
		return err
	}
	j.out.Stats.RowsEmitted++
	if j.p.Mode == plan.ModeAgg {
		return j.out.Groups.UpdateRow(j.p.GroupBy, j.p.Aggs, env)
	}
	row := make([]types.Value, len(j.p.A.Outputs))
	for i, oi := range j.p.A.Outputs {
		v, err := Eval(oi.Expr, env)
		if err != nil {
			return err
		}
		row[i] = v
	}
	j.out.Rows = append(j.out.Rows, row)
	return nil
}

// PartitionedAgg merges one shuffle partition's partial groups under a
// memory grant: Push partial Groups (from map tasks), Flush the merged
// result. On overflow the resident groups are grace-hash spilled by group
// key and re-merged bucket-by-bucket at Flush; since buckets partition the
// key space, the union of bucket merges is exactly the in-memory answer.
type PartitionedAgg struct {
	numAggs int
	grant   int64
	spill   SpillStore
	billing ShuffleBilling

	mem     *Groups
	keyBuf  []byte // scratch for deriving pushed groups' map keys
	bytes   int64
	spilled bool
	chunks  [][]string
	flushed bool

	SpilledBytes int64
}

// NewPartitionedAgg builds the reducer merge operator for one partition of
// a group-by shuffle. A nil spill store disables spilling.
func NewPartitionedAgg(numAggs int, grant int64, spill SpillStore, billing ShuffleBilling) *PartitionedAgg {
	return &PartitionedAgg{
		numAggs: numAggs,
		grant:   grant,
		spill:   spill,
		billing: billing,
		mem:     NewGroups(numAggs),
	}
}

// Push folds one map task's partial groups into the partition state.
func (a *PartitionedAgg) Push(g *Groups) error {
	if a.flushed {
		return fmt.Errorf("exec: Push after Flush")
	}
	if a.spilled {
		return a.spillGroups(g)
	}
	for k, og := range g.M {
		if grp, ok := a.mem.M[k]; ok {
			grp.mergeCells(og)
		} else {
			a.mem.M[k] = a.own(og)
		}
	}
	return a.checkGrant()
}

// PushGroups folds one shuffle frame's groups, as decoded off the wire: the
// map key of each is derived here, once, on its way into the merged state.
func (a *PartitionedAgg) PushGroups(groups []Group) error {
	if a.flushed {
		return fmt.Errorf("exec: Push after Flush")
	}
	if a.spilled {
		g := NewGroups(a.numAggs)
		g.adopt(groups)
		return a.spillGroups(g)
	}
	for i := range groups {
		og := &groups[i]
		a.keyBuf = AppendGroupKey(a.keyBuf[:0], og.Keys)
		if grp, ok := a.mem.M[string(a.keyBuf)]; ok {
			grp.mergeCells(og)
		} else {
			a.mem.M[string(a.keyBuf)] = a.own(og)
		}
	}
	return a.checkGrant()
}

// own copies a pushed group into the operator's state (the caller's groups
// may be shared with a retried or duplicated delivery) and accounts for it.
func (a *PartitionedAgg) own(og *Group) *Group {
	a.bytes += og.estimate()
	return &Group{Keys: append([]types.Value(nil), og.Keys...), Cells: append([]Cell(nil), og.Cells...)}
}

// checkGrant grace-hash spills the resident groups once they outgrow the
// memory grant.
func (a *PartitionedAgg) checkGrant() error {
	if a.spill == nil || a.bytes <= a.grant {
		return nil
	}
	a.spilled = true
	a.chunks = make([][]string, spillFanout)
	staged := a.mem
	a.mem, a.bytes = NewGroups(a.numAggs), 0
	return a.spillGroups(staged)
}

// Flush returns the partition's fully merged groups.
func (a *PartitionedAgg) Flush() (*Groups, error) {
	if a.flushed {
		return nil, fmt.Errorf("exec: double Flush")
	}
	a.flushed = true
	if !a.spilled {
		return a.mem, nil
	}
	out := NewGroups(a.numAggs)
	for b := 0; b < spillFanout; b++ {
		bucket := NewGroups(a.numAggs)
		for _, h := range a.chunks[b] {
			rows, n, err := a.spill.Read(h)
			if err != nil {
				return nil, err
			}
			a.billing.chargeReadBack(n)
			for _, row := range rows {
				grp, err := decodeGroupRow(row, a.numAggs)
				if err != nil {
					return nil, err
				}
				mg := bucket.Get(grp.Keys)
				for i := range mg.Cells {
					mg.Cells[i].Merge(grp.Cells[i])
				}
			}
		}
		out.Merge(bucket)
	}
	return out, nil
}

// spillGroups encodes groups as rows, partitions them by group key (salt 1)
// and writes one chunk per non-empty sub-bucket.
func (a *PartitionedAgg) spillGroups(g *Groups) error {
	parts := make([][][]types.Value, spillFanout)
	for k, grp := range g.M {
		b := hashPartKey(k, 1, spillFanout)
		parts[b] = append(parts[b], encodeGroupRow(grp))
	}
	for b, p := range parts {
		if len(p) == 0 {
			continue
		}
		h, n, err := a.spill.Write(p)
		if err != nil {
			return err
		}
		a.chunks[b] = append(a.chunks[b], h)
		a.SpilledBytes += n
		a.billing.chargeSpill(n)
	}
	return nil
}

// encodeGroupRow flattens a group into a value row the SpillStore can hold:
// [key count, keys..., per aggregate: count, sumI, sumF, float?, min, max].
func encodeGroupRow(g *Group) []types.Value {
	row := make([]types.Value, 0, 1+len(g.Keys)+len(g.Cells)*6)
	row = append(row, types.NewInt(int64(len(g.Keys))))
	row = append(row, g.Keys...)
	for _, c := range g.Cells {
		row = append(row,
			types.NewInt(c.Count), types.NewInt(c.SumI), types.NewFloat(c.SumF),
			types.NewBool(c.Float), c.Min, c.Max)
	}
	return row
}

func decodeGroupRow(row []types.Value, numAggs int) (*Group, error) {
	if len(row) < 1 {
		return nil, fmt.Errorf("exec: truncated spilled group row")
	}
	nk := int(row[0].I)
	if len(row) != 1+nk+numAggs*6 {
		return nil, fmt.Errorf("exec: spilled group row has %d values, want %d", len(row), 1+nk+numAggs*6)
	}
	g := &Group{Keys: append([]types.Value(nil), row[1:1+nk]...), Cells: make([]Cell, numAggs)}
	for i := 0; i < numAggs; i++ {
		off := 1 + nk + i*6
		g.Cells[i] = Cell{
			Count: row[off].I,
			SumI:  row[off+1].I,
			SumF:  row[off+2].F,
			Float: row[off+3].B,
			Min:   row[off+4],
			Max:   row[off+5],
		}
	}
	return g, nil
}
