// Package experiments regenerates the tables and figures of the paper's
// evaluation (§VI: Table I, fig 4/5/8, fig 9–12) and the DESIGN.md ablations
// against the in-process reproduction, and nothing else. Every number is
// simulated cost-model time: the *shapes* (who wins, by what factor, where
// curves bend) are the reproduction target, not speed — speed is a
// wall-clock number from `bash bench/run.sh`. Each experiment returns a
// Report that cmd/feisu-figures renders; see EXPERIMENTS.md for the recorded
// comparison with the paper.
package experiments

import (
	"fmt"
	"strings"
)

// Report is one experiment's rendered result.
type Report struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Headers)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Scale sizes an experiment run. Tests use Small; cmd/feisu-figures uses
// Default (still laptop-friendly; pass -scale big for longer runs).
type Scale struct {
	// DataRowsPerPartition sizes generated fact tables.
	DataRowsPerPartition int
	// Partitions per fact table.
	Partitions int
	// Queries in warm-up/throughput streams.
	Queries int
	// Window groups queries for throughput series (Fig. 9a).
	Window int
	// Leaves in the in-process cluster.
	Leaves int
}

// SmallScale keeps unit tests fast.
func SmallScale() Scale {
	return Scale{DataRowsPerPartition: 512, Partitions: 4, Queries: 120, Window: 30, Leaves: 4}
}

// DefaultScale is what cmd/feisu-figures runs without -scale.
func DefaultScale() Scale {
	return Scale{DataRowsPerPartition: 4096, Partitions: 8, Queries: 1200, Window: 100, Leaves: 8}
}

// BigScale approaches the paper's operating point more closely.
func BigScale() Scale {
	return Scale{DataRowsPerPartition: 16384, Partitions: 16, Queries: 5000, Window: 250, Leaves: 16}
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d(v int64) string    { return fmt.Sprintf("%d", v) }
