package cluster

import (
	"fmt"

	"repro/internal/exec"
)

// Oversized task results are not returned inline: the leaf dumps them to
// global storage over the write flow and passes only the location (paper
// §V-C). These helpers encode results for that path, in the same columnar
// batch form a result has on the wire.

// encodeResult serializes a task result for spilling.
func encodeResult(r *exec.TaskResult) ([]byte, error) {
	data, err := r.GobEncode()
	if err != nil {
		return nil, fmt.Errorf("cluster: encode spill: %w", err)
	}
	return data, nil
}

// decodeResult parses a spilled task result.
func decodeResult(data []byte) (*exec.TaskResult, error) {
	var r exec.TaskResult
	if err := r.GobDecode(data); err != nil {
		return nil, fmt.Errorf("cluster: decode spill: %w", err)
	}
	return &r, nil
}
