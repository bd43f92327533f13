package cluster

// Wire codec of every cluster RPC payload and reply. The messages a
// statement sends — a stem job, a leaf's task batch, the shuffle's messages,
// their replies — are hand-packed with the types package's primitives: each
// implements transport.Packer and registers the decoder of its one-byte tag,
// and a message that carries plans carries each distinct plan once, in the
// plan codec's section (plan/codec.go), naming it by index everywhere else.
// Rows and groups are embedded in the columnar batch form (exec.AppendResult,
// types.AppendRows). The cold messages — ping, heartbeat, catalog — ride the
// transport's one-shot gob envelope.
//
// Decoders read untrusted bytes through a types.Reader: every count is
// checked against the bytes present before anything is allocated, and
// corrupt input yields an error wrapping types.ErrCorrupt. Nothing a
// decoder returns aliases its input. The payload round-trip conformance test
// (codec_test.go) walks the registry, so registering a message type here is
// what puts it under test.

import (
	"encoding/binary"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/types"
)

// Packed message tags.
const (
	tagTaskBatch byte = iota + 1
	tagBatchReply
	tagStemJob
	tagStemReply
	tagShuffle
	tagShuffleReduce
	tagShuffleReduceReply
	tagShuffleAck
	tagShuffleCleanup
)

func init() {
	// Requests and replies, by value: the receivers type-assert value
	// types (raw.(batchReply), raw.(stemReply), …).
	transport.RegisterPayload(pingMsg{})
	transport.RegisterPayload(pingReply{})
	transport.RegisterPayload(heartbeatMsg{})
	transport.RegisterPayload(catalogOp{})
	transport.RegisterPayload(catalogSnapshot{})

	transport.RegisterPacked(taskBatch{}, unpack(readTaskBatch))
	transport.RegisterPacked(batchReply{}, unpack(readBatchReply))
	transport.RegisterPacked(stemJobMsg{}, unpack(readStemJob))
	transport.RegisterPacked(stemReply{}, unpack(readStemReply))
	transport.RegisterPacked(shuffleMsg{}, unpack(readShuffleMsg))
	transport.RegisterPacked(shuffleReduceMsg{}, unpack(readShuffleReduce))
	transport.RegisterPacked(shuffleReduceReply{}, unpack(readShuffleReduceReply))
	transport.RegisterPacked(shuffleAck{}, unpack(func(*types.Reader) shuffleAck { return shuffleAck{} }))
	transport.RegisterPacked(shuffleCleanupMsg{}, unpack(func(r *types.Reader) shuffleCleanupMsg {
		return shuffleCleanupMsg{Exchange: r.Str()}
	}))
}

// unpack turns a message reader into a transport decoder: the message must
// use every byte. It is types.ReadAll written out, which keeps the Reader
// off the heap.
func unpack[M any](read func(*types.Reader) M) func([]byte) (any, error) {
	return func(b []byte) (any, error) {
		r := types.NewReader(b)
		m := read(&r)
		if err := r.End(); err != nil {
			return nil, err
		}
		return m, nil
	}
}

// Minimum encoded sizes, checked against the input before a list of them is
// allocated.
const (
	taskMinBytes        = 6  // plan, path, rows, bytes, gen, ordinal
	taskReplyMinBytes   = 14 // status, result flag, size
	statusMinBytes      = 12 // two flags, two strings, two times, devices, rows, two lists
	shufflePartMinBytes = 4  // partition, size, an empty rows batch, an empty groups batch
	tailMinBytes        = 2  // ordinal, result flag
)

func (taskBatch) PayloadTag() byte { return tagTaskBatch }

// AppendPayload packs the batch: its tasks' plans as one section, then the
// tasks and the route.
func (b taskBatch) AppendPayload(dst []byte) ([]byte, error) {
	var pe plan.Encoder
	for _, t := range b.Tasks {
		pe.Add(t.Plan)
	}
	return appendBatch(&pe, pe.AppendSection(dst), b), nil
}

func readTaskBatch(r *types.Reader) taskBatch { return readBatch(r, plan.ReadSection(r)) }

// appendBatch packs a batch whose plans pe already holds.
func appendBatch(pe *plan.Encoder, b []byte, tb taskBatch) []byte {
	b = appendTasks(pe, b, tb.Tasks)
	b = types.AppendString(b, tb.QueryID)
	b = binary.AppendVarint(b, int64(tb.TaskTimeout))
	b = binary.AppendVarint(b, int64(tb.Attempt))
	b = types.AppendString(b, tb.Exchange)
	b = appendStrings(b, tb.Sides)
	b = binary.AppendVarint(b, int64(tb.Partitions))
	b = binary.AppendVarint(b, int64(tb.Keys))
	return appendStrings(b, tb.Reducers)
}

func readBatch(r *types.Reader, sec plan.Section) taskBatch {
	tb := taskBatch{Tasks: readTasks(r, sec), QueryID: r.Str(), TaskTimeout: time.Duration(r.Varint()), Attempt: r.Int(), Exchange: r.Str()}
	tb.Sides = readStrings(r, readSide)
	tb.Partitions, tb.Keys = r.Int(), r.Int()
	tb.Reducers = readStrings(r, (*types.Reader).Str)
	return tb
}

// appendTasks packs tasks whose plans pe already holds, each plan as its
// index in the section.
func appendTasks(pe *plan.Encoder, b []byte, tasks []plan.TaskSpec) []byte {
	b = types.AppendCount(b, len(tasks), tasks == nil)
	for _, t := range tasks {
		b = binary.AppendUvarint(b, pe.Ref(t.Plan))
		b = types.AppendString(b, t.Partition.Path)
		b = binary.AppendVarint(b, t.Partition.Rows)
		b = binary.AppendVarint(b, t.Partition.Bytes)
		b = binary.AppendUvarint(b, t.Partition.Gen)
		b = binary.AppendVarint(b, int64(t.Ordinal))
	}
	return b
}

func readTasks(r *types.Reader, sec plan.Section) []plan.TaskSpec {
	n, isNil := r.Count(taskMinBytes)
	if isNil {
		return nil
	}
	tasks := make([]plan.TaskSpec, n)
	for i := range tasks {
		t := &tasks[i]
		t.Plan = sec.Plan(r)
		t.Partition = plan.PartitionMeta{Path: r.Str(), Rows: r.Varint(), Bytes: r.Varint(), Gen: r.Uvarint()}
		t.Ordinal = r.Int()
	}
	return tasks
}

// shuffleSides are the side names a batch or shuffle message carries, read
// as the constants they are: a batch's per-ordinal sides cost nothing to
// decode.
var shuffleSides = []string{shuffleSideProbe, shuffleSideBuild, shuffleSideGroup}

func readSide(r *types.Reader) string { return r.Known(shuffleSides) }

func (batchReply) PayloadTag() byte { return tagBatchReply }

func (m batchReply) AppendPayload(b []byte) ([]byte, error) {
	b = types.AppendCount(b, len(m.Tasks), m.Tasks == nil)
	for _, t := range m.Tasks {
		b = appendStatus(b, t.Status)
		var err error
		if b, err = appendResult(b, t.Result); err != nil {
			return nil, err
		}
		b = binary.AppendVarint(b, t.Size)
	}
	return b, nil
}

func readBatchReply(r *types.Reader) batchReply {
	var m batchReply
	if n, isNil := r.Count(taskReplyMinBytes); !isNil {
		m.Tasks = make([]taskReply, n)
	}
	for i := range m.Tasks {
		t := &m.Tasks[i]
		t.Status = readStatus(r)
		t.Result = readResult(r)
		t.Size = r.Varint()
	}
	return m
}

func (stemJobMsg) PayloadTag() byte { return tagStemJob }

// AppendPayload packs the job: one plan section for the job's plan and every
// task's, so a job whose tasks share its plan ships it once.
func (j stemJobMsg) AppendPayload(b []byte) ([]byte, error) {
	var pe plan.Encoder
	pe.Add(j.Plan)
	for _, t := range j.Tasks {
		pe.Add(t.Plan)
	}
	for _, t := range j.Batch.Tasks {
		pe.Add(t.Plan)
	}
	b = binary.AppendUvarint(pe.AppendSection(b), pe.Ref(j.Plan))
	b = appendTasks(&pe, b, j.Tasks)
	b = types.AppendCount(b, len(j.Assign), j.Assign == nil)
	for ord, leaf := range j.Assign {
		b = types.AppendString(binary.AppendVarint(b, int64(ord)), leaf)
	}
	return appendBatch(&pe, b, j.Batch), nil
}

func readStemJob(r *types.Reader) stemJobMsg {
	sec := plan.ReadSection(r)
	j := stemJobMsg{Plan: sec.Plan(r)}
	j.Tasks = readTasks(r, sec)
	if n, isNil := r.Count(2); !isNil {
		j.Assign = make(map[int]string, n)
		for range n {
			ord := r.Int()
			j.Assign[ord] = r.Str()
		}
	}
	j.Batch = readBatch(r, sec)
	return j
}

func (stemReply) PayloadTag() byte { return tagStemReply }

func (m stemReply) AppendPayload(b []byte) ([]byte, error) {
	b, err := appendResult(b, m.Merged)
	if err != nil {
		return nil, err
	}
	b = types.AppendCount(b, len(m.Tail), m.Tail == nil)
	for ord, res := range m.Tail {
		if b, err = appendResult(binary.AppendVarint(b, int64(ord)), res); err != nil {
			return nil, err
		}
	}
	b = types.AppendCount(b, len(m.Status), m.Status == nil)
	for _, st := range m.Status {
		b = appendStatus(b, st)
	}
	return b, nil
}

func readStemReply(r *types.Reader) stemReply {
	m := stemReply{Merged: readResult(r)}
	if n, isNil := r.Count(tailMinBytes); !isNil {
		m.Tail = make(map[int]*exec.TaskResult, n)
		for range n {
			ord := r.Int()
			m.Tail[ord] = readResult(r)
		}
	}
	if n, isNil := r.Count(statusMinBytes); !isNil {
		m.Status = make([]taskStatus, n)
		for i := range m.Status {
			m.Status[i] = readStatus(r)
		}
	}
	return m
}

func (shuffleMsg) PayloadTag() byte { return tagShuffle }

// AppendPayload packs the message's identity, the part count, then per part
// its partition, its size, and its rows and groups as column batches.
func (m shuffleMsg) AppendPayload(b []byte) ([]byte, error) {
	b = types.AppendString(b, m.Exchange)
	b = types.AppendString(b, m.QueryID)
	b = types.AppendString(b, m.Side)
	b = binary.AppendVarint(b, int64(m.Ordinal))
	b = binary.AppendVarint(b, int64(m.Attempt))
	b = types.AppendCount(b, len(m.Parts), m.Parts == nil)
	for _, p := range m.Parts {
		b = binary.AppendVarint(b, int64(p.Partition))
		b = binary.AppendVarint(b, p.Size)
		b = types.AppendRows(b, p.Rows)
		var err error
		if b, err = exec.AppendGroups(b, p.Groups); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func readShuffleMsg(r *types.Reader) shuffleMsg {
	m := shuffleMsg{Exchange: r.Str(), QueryID: r.Str(), Side: readSide(r), Ordinal: r.Int(), Attempt: r.Int()}
	if n, isNil := r.Count(shufflePartMinBytes); !isNil {
		m.Parts = make([]shufflePart, n)
	}
	for i := range m.Parts {
		p := &m.Parts[i]
		p.Partition, p.Size = r.Int(), r.Varint()
		p.Rows, p.Groups = r.Rows(), exec.ReadGroups(r)
	}
	return m
}

func (shuffleReduceMsg) PayloadTag() byte { return tagShuffleReduce }

func (m shuffleReduceMsg) AppendPayload(b []byte) ([]byte, error) {
	var pe plan.Encoder
	pe.Add(m.Plan)
	b = binary.AppendUvarint(pe.AppendSection(b), pe.Ref(m.Plan))
	b = types.AppendString(b, m.Exchange)
	b = types.AppendString(b, m.QueryID)
	for _, ords := range [...][]int{m.Partitions, m.ProbeOrdinals, m.BuildOrdinals, m.GroupOrdinals} {
		b = appendInts(b, ords)
	}
	return types.AppendString(b, m.SpillPrefix), nil
}

func readShuffleReduce(r *types.Reader) shuffleReduceMsg {
	sec := plan.ReadSection(r)
	m := shuffleReduceMsg{Plan: sec.Plan(r), Exchange: r.Str(), QueryID: r.Str()}
	for _, ords := range [...]*[]int{&m.Partitions, &m.ProbeOrdinals, &m.BuildOrdinals, &m.GroupOrdinals} {
		*ords = readInts[int](r)
	}
	m.SpillPrefix = r.Str()
	return m
}

func (shuffleReduceReply) PayloadTag() byte { return tagShuffleReduceReply }

func (m shuffleReduceReply) AppendPayload(b []byte) ([]byte, error) {
	b, err := appendResult(b, m.Result)
	if err != nil {
		return nil, err
	}
	b = types.AppendCount(b, len(m.PartSim), m.PartSim == nil)
	for pi, d := range m.PartSim {
		b = binary.AppendVarint(binary.AppendVarint(b, int64(pi)), int64(d))
	}
	b = binary.AppendVarint(b, m.SpillBytes)
	return appendDevBytes(b, m.DevBytes), nil
}

func readShuffleReduceReply(r *types.Reader) shuffleReduceReply {
	m := shuffleReduceReply{Result: readResult(r)}
	if n, isNil := r.Count(2); !isNil {
		m.PartSim = make(map[int]time.Duration, n)
		for range n {
			pi := r.Int()
			m.PartSim[pi] = time.Duration(r.Varint())
		}
	}
	m.SpillBytes = r.Varint()
	m.DevBytes = readDevBytes(r)
	return m
}

func (shuffleAck) PayloadTag() byte                       { return tagShuffleAck }
func (shuffleAck) AppendPayload(b []byte) ([]byte, error) { return b, nil }

func (shuffleCleanupMsg) PayloadTag() byte { return tagShuffleCleanup }

func (m shuffleCleanupMsg) AppendPayload(b []byte) ([]byte, error) {
	return types.AppendString(b, m.Exchange), nil
}

// appendStatus packs one task status.
func appendStatus(b []byte, st taskStatus) []byte {
	b = types.AppendBool(b, st.OK)
	b = types.AppendString(b, st.Err)
	b = types.AppendString(b, st.Leaf)
	b = binary.AppendVarint(b, int64(st.SimTime))
	b = binary.AppendVarint(b, int64(st.ScanSim))
	b = appendDevBytes(b, st.DevBytes)
	b = binary.AppendVarint(b, int64(st.Rows))
	b = types.AppendBool(b, st.Unreachable)
	b = appendInts(b, st.TransferSim)
	return appendInts(b, st.TransferBytes)
}

func readStatus(r *types.Reader) taskStatus {
	st := taskStatus{OK: r.Bool(), Err: r.Str(), Leaf: r.Str(), SimTime: time.Duration(r.Varint()), ScanSim: time.Duration(r.Varint())}
	st.DevBytes = readDevBytes(r)
	st.Rows = r.Int()
	st.Unreachable = r.Bool()
	st.TransferSim = readInts[time.Duration](r)
	st.TransferBytes = readInts[int64](r)
	return st
}

func appendDevBytes(b []byte, d sim.DeviceBytes) []byte {
	for _, n := range d {
		b = binary.AppendVarint(b, n)
	}
	return b
}

func readDevBytes(r *types.Reader) (d sim.DeviceBytes) {
	for i := range d {
		d[i] = r.Varint()
	}
	return d
}

// appendResult packs an optional task result: a flag, then the result.
func appendResult(b []byte, res *exec.TaskResult) ([]byte, error) {
	if res == nil {
		return append(b, 0), nil
	}
	return exec.AppendResult(append(b, 1), res)
}

func readResult(r *types.Reader) *exec.TaskResult {
	if !r.Bool() {
		return nil
	}
	return exec.ReadResult(r)
}

func appendInts[T ~int | ~int64](b []byte, s []T) []byte {
	b = types.AppendCount(b, len(s), s == nil)
	for _, x := range s {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

func readInts[T ~int | ~int64](r *types.Reader) []T {
	n, isNil := r.Count(1)
	if isNil {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = T(r.Varint())
	}
	return s
}

func appendStrings(b []byte, s []string) []byte {
	b = types.AppendCount(b, len(s), s == nil)
	for _, x := range s {
		b = types.AppendString(b, x)
	}
	return b
}

func readStrings(r *types.Reader, elem func(*types.Reader) string) []string {
	n, isNil := r.Count(1)
	if isNil {
		return nil
	}
	s := make([]string, n)
	for i := range s {
		s[i] = elem(r)
	}
	return s
}
