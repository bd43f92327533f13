package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/trace"
)

// StageTiming is one per-stage line of a slow query's breakdown, extracted
// from the query's trace spans.
type StageTiming struct {
	Name string
	Sim  time.Duration
	Wall time.Duration
}

// slowEntry is one line of the slow-query log: a slow statement the
// master's ring kept, with the stages, counters and critical path read from
// its span tree when the log is read.
type slowEntry struct {
	trace.StoredTrace
	Stages       []StageTiming
	Counters     map[string]int64
	CriticalPath string
}

func slowEntries(ts []trace.StoredTrace) []slowEntry {
	out := make([]slowEntry, len(ts))
	for i, t := range ts {
		out[i] = slowEntry{
			StoredTrace:  t,
			Stages:       StagesFromTrace(t.Root),
			Counters:     CountersFromTrace(t.Root),
			CriticalPath: trace.AnalyzeCriticalPath(t.Root).Summary(),
		}
	}
	return out
}

// StagesFromTrace extracts a per-stage breakdown from a query's root span:
// the root's direct children (master/load-dims, master/execute,
// master/finalize) plus an aggregated busy total over all leaf task spans,
// so the breakdown shows both the critical path and the fan-out volume.
func StagesFromTrace(root *trace.Span) []StageTiming {
	if root == nil {
		return nil
	}
	var out []StageTiming
	for _, c := range root.Children() {
		out = append(out, StageTiming{Name: c.Name(), Sim: c.Sim(), Wall: c.Wall()})
	}
	leaves := root.FindAll("leaf/")
	if len(leaves) > 0 {
		agg := StageTiming{Name: fmt.Sprintf("leaf tasks ×%d (busy total)", len(leaves))}
		for _, l := range leaves {
			agg.Sim += l.Sim()
			agg.Wall += l.Wall()
		}
		out = append(out, agg)
	}
	return out
}

// CountersFromTrace sums every named counter across the whole span tree
// (index.hit, cache.miss, rows.scanned, ...).
func CountersFromTrace(root *trace.Span) map[string]int64 {
	if root == nil {
		return nil
	}
	out := make(map[string]int64)
	var walk func(s *trace.Span)
	walk = func(s *trace.Span) {
		for k, v := range s.Counts() {
			out[k] += v
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(root)
	if len(out) == 0 {
		return nil
	}
	return out
}

// RenderSlowlog formats slow statements (as Store.Slow returns them, newest
// first) for the \slowlog command and the /debug/slowlog endpoint.
func RenderSlowlog(slow []trace.StoredTrace) string {
	if len(slow) == 0 {
		return "slowlog is empty\n"
	}
	var sb strings.Builder
	for _, q := range slowEntries(slow) {
		fmt.Fprintf(&sb, "%s %s wall=%s sim=%s tasks=%d reused=%d backups=%d failed=%d\n",
			q.QueryID, q.When.Format(time.RFC3339), q.Wall.Round(time.Microsecond),
			q.Sim.Round(time.Microsecond), q.Tasks, q.Reused, q.Backups, q.Failed)
		fmt.Fprintf(&sb, "  query: %s\n", q.SQL)
		if q.Fingerprint != "" && q.Fingerprint != q.SQL {
			fmt.Fprintf(&sb, "  fingerprint: %s\n", q.Fingerprint)
		}
		for _, st := range q.Stages {
			fmt.Fprintf(&sb, "  stage %-28s sim=%-12s wall=%s\n",
				st.Name, st.Sim.Round(time.Microsecond), st.Wall.Round(time.Microsecond))
		}
		if q.CriticalPath != "" {
			fmt.Fprintf(&sb, "  critical path: %s\n", q.CriticalPath)
		}
		if len(q.Counters) > 0 {
			keys := make([]string, 0, len(q.Counters))
			for k := range q.Counters {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, len(keys))
			for i, k := range keys {
				parts[i] = fmt.Sprintf("%s=%d", k, q.Counters[k])
			}
			fmt.Fprintf(&sb, "  counters: %s\n", strings.Join(parts, " "))
		}
	}
	return sb.String()
}
