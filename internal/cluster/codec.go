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
// carries rows or groups (exec.TaskResult, shuffleFrameMsg) encodes itself
// with the columnar batch codec and rides gob as one opaque byte field.

import (
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
	// types (raw.(taskReply), raw.(stemReply), …).
	transport.RegisterPayload(pingMsg{})
	transport.RegisterPayload(pingReply{})
	transport.RegisterPayload(heartbeatMsg{})
	transport.RegisterPayload(taskMsg{})
	transport.RegisterPayload(taskReply{})
	transport.RegisterPayload(wireStemJob{})
	transport.RegisterPayload(stemReply{})
	transport.RegisterPayload(catalogOp{})
	transport.RegisterPayload(catalogSnapshot{})
	transport.RegisterPayload(shuffleFrameMsg{})
	transport.RegisterPayload(shuffleEndMsg{})
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
// with job() on receipt. gob does not preserve pointer aliasing, and every
// TaskSpec in a job points at the job's own PhysicalPlan — naively encoding
// the struct would ship the plan (and its broadcast dimension data) once per
// task. The wire form nils out aliased task plans and relinks them on
// receipt; a task plan that genuinely differs from the job plan is shipped
// inline.
type wireStemJob struct {
	Job        stemJobMsg
	SharedPlan []bool // Job.Tasks[i].Plan == Job.Plan before conversion
}

func (j stemJobMsg) wire() wireStemJob {
	w := wireStemJob{Job: j, SharedPlan: make([]bool, len(j.Tasks))}
	w.Job.Tasks = make([]plan.TaskSpec, len(j.Tasks))
	for i, t := range j.Tasks {
		if t.Plan == j.Plan && j.Plan != nil {
			t.Plan = nil
			w.SharedPlan[i] = true
		}
		w.Job.Tasks[i] = t
	}
	return w
}

func (w wireStemJob) job() stemJobMsg {
	for i := range w.Job.Tasks {
		if i < len(w.SharedPlan) && w.SharedPlan[i] {
			w.Job.Tasks[i].Plan = w.Job.Plan
		}
	}
	return w.Job
}

// GobEncode implements gob.GobEncoder with the columnar batch form: the
// frame's identity hand-packed, then its rows and groups as column batches.
func (m shuffleFrameMsg) GobEncode() ([]byte, error) {
	b := types.AppendString(nil, m.Exchange)
	b = types.AppendString(b, m.QueryID)
	b = types.AppendString(b, m.Side)
	for _, v := range []int64{int64(m.Ordinal), int64(m.Attempt), int64(m.Partition), m.Size} {
		b = binary.AppendVarint(b, v)
	}
	b = types.AppendRows(b, m.Rows)
	return exec.AppendGroups(b, m.Groups)
}

// GobDecode implements gob.GobDecoder.
func (m *shuffleFrameMsg) GobDecode(b []byte) error {
	var (
		out shuffleFrameMsg
		err error
	)
	for _, s := range []*string{&out.Exchange, &out.QueryID, &out.Side} {
		if *s, b, err = types.ReadString(b); err != nil {
			return err
		}
	}
	var nums [4]int64
	for i := range nums {
		if nums[i], b, err = types.ReadVarint(b); err != nil {
			return err
		}
	}
	out.Ordinal, out.Attempt, out.Partition, out.Size = int(nums[0]), int(nums[1]), int(nums[2]), nums[3]
	if out.Rows, b, err = types.DecodeRows(b); err != nil {
		return err
	}
	if out.Groups, b, err = exec.DecodeGroups(b); err != nil {
		return err
	}
	if len(b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after shuffle frame", types.ErrCorruptBatch, len(b))
	}
	*m = out
	return nil
}
