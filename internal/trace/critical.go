package trace

import (
	"fmt"
	"strings"
	"time"
)

// Segment is one exclusive slice of a query's end-to-end latency.
type Segment struct {
	Name string
	Dur  time.Duration
	// Wall marks a segment measured in wall-clock time (queue wait); every
	// other segment is simulated time from the cost model.
	Wall bool
}

// CriticalPath attributes a finished query's end-to-end latency to
// disjoint segments. Total is the admission queue wait (wall) plus the
// root span's simulated response time; the segments partition it exactly
// (they are disjoint and sum to Total by construction), so the largest
// segment is the one that actually gated the query.
type CriticalPath struct {
	Total     time.Duration
	QueueWait time.Duration
	// CriticalLeaf names the leaf whose task chain dominated the execute
	// stage ("" when the query executed no tasks, e.g. a result-cache hit).
	CriticalLeaf string
	Segments     []Segment
}

// AnalyzeCriticalPath walks a finished master/query span tree and splits
// its end-to-end latency into exclusive segments:
//
//	queue-wait         admission queue time (wall clock)
//	plan+load-dims     master-side planning and dimension materialization
//	schedule+dispatch  RPC fan-out/fan-in and scheduling overhead
//	scan @ <leaf>      the critical leaf's execution (storage + predicate CPU)
//	transfer           spill fetch and reply transfer on the critical chain
//	stem-merge         execute-stage time outside the critical leaf chain
//	finalize           master-side final aggregation and sorting
//
// The execute stage is attributed to the leaf with the largest summed task
// sim time — the chain the master actually waited on. Returns nil only for
// a nil root.
func AnalyzeCriticalPath(root *Span) *CriticalPath {
	if root == nil {
		return nil
	}
	cp := &CriticalPath{
		QueueWait: root.Find("master/admission").Wall(),
	}
	rootSim := root.Sim()
	cp.Total = cp.QueueWait + rootSim

	// Allocate the root's sim time to the master stages, clamping each to
	// the unallocated remainder so the segments always partition Total even
	// on inconsistent trees; whatever is left over is the scheduling and
	// RPC overhead the stages don't claim.
	remaining := rootSim
	take := func(d time.Duration) time.Duration {
		if d < 0 {
			d = 0
		}
		if d > remaining {
			d = remaining
		}
		remaining -= d
		return d
	}
	planSeg := take(root.Find("master/load-dims").Sim())
	execSeg := take(root.Find("master/execute").Sim())
	finalSeg := take(root.Find("master/finalize").Sim())
	schedSeg := remaining

	// Split the execute stage along the critical leaf chain: group task
	// spans by leaf, pick the busiest leaf, and divide its chain into leaf
	// execution (scan) vs reply transfer. Raw components are
	// rescaled to exactly execSeg so clamping above cannot break the
	// partition.
	scanRaw, transferRaw, otherRaw := splitExecute(root, cp)

	// A repartitioned query records its keyed-frame transfer as its own
	// pipeline stage; carve it out of the execute remainder so EXPLAIN
	// ANALYZE attributes shuffle bytes separately from reply transfer.
	// Non-shuffle queries have no such span and keep the classic segments.
	shuffleSpan := root.Find("shuffle-transfer")
	var shuffleRaw time.Duration
	if shuffleSpan != nil {
		shuffleRaw = shuffleSpan.Sim()
		if shuffleRaw > otherRaw {
			shuffleRaw = otherRaw
		}
		otherRaw -= shuffleRaw
	}
	scanSeg, transferSeg, shuffleSeg, otherSeg := scale4(scanRaw, transferRaw, shuffleRaw, otherRaw, execSeg)

	scanName := "scan"
	if cp.CriticalLeaf != "" {
		scanName = "scan @ " + cp.CriticalLeaf
	}
	cp.Segments = []Segment{
		{Name: "queue-wait", Dur: cp.QueueWait, Wall: true},
		{Name: "plan+load-dims", Dur: planSeg},
		{Name: "schedule+dispatch", Dur: schedSeg},
		{Name: scanName, Dur: scanSeg},
		{Name: "transfer", Dur: transferSeg},
	}
	if shuffleSpan != nil {
		cp.Segments = append(cp.Segments, Segment{Name: "shuffle-transfer", Dur: shuffleSeg})
	}
	cp.Segments = append(cp.Segments,
		Segment{Name: "stem-merge", Dur: otherSeg},
		Segment{Name: "finalize", Dur: finalSeg},
	)
	return cp
}

// splitExecute measures the execute stage's raw components off the span
// tree: the critical leaf's execution-only time, its transfer overhead,
// and everything charged to the stage outside that chain.
func splitExecute(root *Span, cp *CriticalPath) (scan, transfer, other time.Duration) {
	ex := root.Find("master/execute")
	if ex == nil {
		return 0, 0, 0
	}
	leafTotal := make(map[string]time.Duration)
	leafScan := make(map[string]time.Duration)
	for _, task := range ex.FindAll("task#") {
		leaf := taskLeaf(task.Name())
		if leaf == "" {
			continue
		}
		leafTotal[leaf] += task.Sim()
		// A task span's own sim is the full response time; its "leaf/" child
		// carries the execution-only component, and the task that carries
		// its batch's reply has a reply-transfer child for the rest.
		for _, c := range task.Children() {
			if strings.HasPrefix(c.Name(), "leaf/") {
				leafScan[leaf] += c.Sim()
			}
		}
	}
	for leaf, total := range leafTotal {
		if cp.CriticalLeaf == "" || total > leafTotal[cp.CriticalLeaf] ||
			(total == leafTotal[cp.CriticalLeaf] && leaf < cp.CriticalLeaf) {
			cp.CriticalLeaf = leaf
		}
	}
	if cp.CriticalLeaf == "" {
		return 0, 0, 0
	}
	critTotal := leafTotal[cp.CriticalLeaf]
	scan = leafScan[cp.CriticalLeaf]
	if scan > critTotal {
		scan = critTotal
	}
	transfer = critTotal - scan
	if exSim := ex.Sim(); exSim > critTotal {
		other = exSim - critTotal
	}
	return scan, transfer, other
}

// taskLeaf extracts the leaf name from a "task#N @ leaf" span name.
func taskLeaf(name string) string {
	if i := strings.Index(name, " @ "); i >= 0 {
		return name[i+3:]
	}
	return ""
}

// scale4 rescales four raw components to sum exactly to budget,
// preserving their proportions (integer nanoseconds; the rounding
// remainder lands on the first component). All-zero raws put the whole
// budget on the first (scan) component.
func scale4(a, b, c, d, budget time.Duration) (time.Duration, time.Duration, time.Duration, time.Duration) {
	if budget <= 0 {
		return 0, 0, 0, 0
	}
	sum := a + b + c + d
	if sum <= 0 {
		return budget, 0, 0, 0
	}
	sb := time.Duration(int64(b) * int64(budget) / int64(sum))
	sc := time.Duration(int64(c) * int64(budget) / int64(sum))
	sd := time.Duration(int64(d) * int64(budget) / int64(sum))
	return budget - sb - sc - sd, sb, sc, sd
}

// Render formats the critical path, one segment per line with its share
// of the end-to-end total. Durations use the trace's sim=/wall= token
// format so tooling that normalizes trace output covers this block too.
func (cp *CriticalPath) Render() string {
	if cp == nil {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "critical path  total=%s\n", fmtDur(cp.Total))
	for _, seg := range cp.Segments {
		unit := "sim"
		if seg.Wall {
			unit = "wall"
		}
		pct := 0.0
		if cp.Total > 0 {
			pct = 100 * float64(seg.Dur) / float64(cp.Total)
		}
		fmt.Fprintf(&sb, "  %-18s %s=%-10s %5.1f%%\n", seg.Name, unit, fmtDur(seg.Dur), pct)
	}
	return sb.String()
}

// Summary is the one-line form for slow-query-log entries: every segment
// holding at least a 1% share, in canonical order so related entries line
// up column-wise.
func (cp *CriticalPath) Summary() string {
	if cp == nil || cp.Total <= 0 {
		return ""
	}
	parts := make([]string, 0, len(cp.Segments))
	for _, seg := range cp.Segments {
		pct := 100 * float64(seg.Dur) / float64(cp.Total)
		if pct < 1 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %.0f%%", seg.Name, pct))
	}
	return strings.Join(parts, ", ")
}
