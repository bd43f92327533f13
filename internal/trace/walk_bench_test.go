package trace

import (
	"fmt"
	"testing"
	"time"
)

// stressTree builds the tree TestSpanConcurrentStress grows: a root, eight
// stem branches, and per branch tasks with one leaf child each — 1 + 8 +
// 16×tasks spans in all.
func stressTree(tasks int) *Span {
	root := New("master/query")
	for w := 0; w < 8; w++ {
		branch := root.Child(fmt.Sprintf("stem/s%d", w))
		for i := 0; i < tasks; i++ {
			task := branch.Child(fmt.Sprintf("task#%d @ leaf%d", i, w))
			leaf := task.Child(fmt.Sprintf("leaf/leaf%d", w))
			leaf.SetSim(time.Duration(i) * time.Microsecond)
			leaf.Count("rows.scanned", int64(i))
			leaf.SetAttr("partition", fmt.Sprintf("/mem/p%d", i))
			leaf.Finish()
			task.AddSim(time.Duration(i) * time.Microsecond)
			task.Count("rows", 1)
			task.Finish()
			root.Count("tasks", 1)
		}
		branch.Finish()
	}
	root.Finish()
	return root
}

// BenchmarkWalks times each whole-tree walk the stress test's readers make,
// at 809 and 3 209 spans (50 and 200 tasks a branch), and reports ns/span:
// a walk whose ns/span grows with the tree is superlinear.
func BenchmarkWalks(b *testing.B) {
	walks := []struct {
		name string
		walk func(*Span)
	}{
		{"Render", func(s *Span) { _ = s.Render() }},
		{"ToJaeger", func(s *Span) { _ = ToJaeger(StoredTrace{QueryID: "qbench", Root: s}) }},
		{"AnalyzeCriticalPath", func(s *Span) { _ = AnalyzeCriticalPath(s) }},
		{"FindAll", func(s *Span) { _ = s.FindAll("task#") }},
		{"Counts", func(s *Span) { _ = s.Counts() }},
	}
	for _, w := range walks {
		for _, tasks := range []int{50, 200} {
			root := stressTree(tasks)
			spans := 1 + 8 + 16*tasks
			b.Run(fmt.Sprintf("%s/spans=%d", w.name, spans), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					w.walk(root)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(spans), "ns/span")
			})
		}
	}
}
