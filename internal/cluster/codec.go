package cluster

// Wire-codec registration for every cluster RPC payload and reply. The TCP
// transport serializes payloads with gob behind an interface envelope, so
// each concrete type that crosses transport.Network.Call — and every
// concrete type reachable through an interface field inside one (the
// sqlparser.Expr nodes) — must be registered identically in every process.
// The payload round-trip conformance test (codec_test.go) walks this
// registry, so adding a message type here is what puts it under test.
//
// gob reflects only over control fields and plan trees: everything that
// carries rows or groups (exec.TaskResult, shuffleMsg) encodes itself
// with the columnar batch codec and rides gob as one opaque byte field.

import (
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/transport"
	"repro/internal/types"
)

func init() {
	// Requests and replies, by value: the receivers type-assert value
	// types (raw.(batchReply), raw.(stemReply), …).
	transport.RegisterPayload(pingMsg{})
	transport.RegisterPayload(pingReply{})
	transport.RegisterPayload(heartbeatMsg{})
	transport.RegisterPayload(taskBatch{})
	transport.RegisterPayload(batchReply{})
	transport.RegisterPayload(wireStemJob{})
	transport.RegisterPayload(stemReply{})
	transport.RegisterPayload(catalogOp{})
	transport.RegisterPayload(catalogSnapshot{})
	transport.RegisterPayload(shuffleMsg{})
	transport.RegisterPayload(shuffleReduceMsg{})
	transport.RegisterPayload(shuffleReduceReply{})
	transport.RegisterPayload(shuffleCleanupMsg{})
	transport.RegisterPayload(shuffleAck{})

	// Expression nodes reachable through sqlparser.Expr interface fields
	// (plans, CNF opaque leaves, aggregate args, group-by keys).
	gob.Register(&sqlparser.ColumnRef{})
	gob.Register(&sqlparser.Literal{})
	gob.Register(&sqlparser.BinaryExpr{})
	gob.Register(&sqlparser.IsNullExpr{})
	gob.Register(&sqlparser.NotExpr{})
	gob.Register(&sqlparser.NegExpr{})
	gob.Register(&sqlparser.FuncCall{})
}

// wireStemJob is stemJobMsg's wire form, and the registered payload type:
// the master converts with wire() before the call and the stem converts back
// with job() on receipt. gob does not preserve pointer aliasing, so, as in a
// taskBatch, a task plan that is the job's travels as nil and is relinked on
// receipt: the plan (and its broadcast dimension data) ships once, not once
// per task. A task plan that differs from the job plan is shipped inline.
type wireStemJob struct {
	Job stemJobMsg
}

func (j stemJobMsg) wire() wireStemJob {
	w := wireStemJob{Job: j}
	w.Job.Tasks = make([]plan.TaskSpec, len(j.Tasks))
	for i, t := range j.Tasks {
		if t.Plan == j.Plan {
			t.Plan = nil
		}
		w.Job.Tasks[i] = t
	}
	return w
}

func (w wireStemJob) job() stemJobMsg {
	for i := range w.Job.Tasks {
		w.Job.Tasks[i].Plan = cmp.Or(w.Job.Tasks[i].Plan, w.Job.Plan)
	}
	return w.Job
}

// shufflePartMinBytes is the least a part occupies on the wire: a partition
// and a size varint, an empty rows batch and an empty groups batch.
const shufflePartMinBytes = 4

// GobEncode implements gob.GobEncoder with the columnar batch form: the
// message's identity hand-packed, the part count, then per part its
// partition, its size, and its rows and groups as column batches.
func (m shuffleMsg) GobEncode() ([]byte, error) {
	b := types.AppendString(nil, m.Exchange)
	b = types.AppendString(b, m.QueryID)
	b = types.AppendString(b, m.Side)
	b = binary.AppendVarint(b, int64(m.Ordinal))
	b = binary.AppendVarint(b, int64(m.Attempt))
	b = binary.AppendUvarint(b, uint64(len(m.Parts)))
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

// GobDecode implements gob.GobDecoder. The part count is checked against the
// bytes present before the parts are allocated.
func (m *shuffleMsg) GobDecode(b []byte) error {
	var (
		out shuffleMsg
		err error
	)
	for _, s := range []*string{&out.Exchange, &out.QueryID, &out.Side} {
		if *s, b, err = types.ReadString(b); err != nil {
			return err
		}
	}
	var nums [2]int64
	for i := range nums {
		if nums[i], b, err = types.ReadVarint(b); err != nil {
			return err
		}
	}
	out.Ordinal, out.Attempt = int(nums[0]), int(nums[1])
	n, b, err := types.ReadUvarint(b)
	if err != nil {
		return err
	}
	if n > uint64(len(b)/shufflePartMinBytes) {
		return fmt.Errorf("%w: %d shuffle parts in %d bytes", types.ErrCorruptBatch, n, len(b))
	}
	if n > 0 {
		out.Parts = make([]shufflePart, n)
	}
	for i := range out.Parts {
		p := &out.Parts[i]
		var pi int64
		if pi, b, err = types.ReadVarint(b); err != nil {
			return err
		}
		p.Partition = int(pi)
		if p.Size, b, err = types.ReadVarint(b); err != nil {
			return err
		}
		if p.Rows, b, err = types.DecodeRows(b); err != nil {
			return err
		}
		if p.Groups, b, err = exec.DecodeGroups(b); err != nil {
			return err
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after shuffle message", types.ErrCorruptBatch, len(b))
	}
	*m = out
	return nil
}
