// Package trace is Feisu's per-query span tracer: the measurement layer
// behind EXPLAIN ANALYZE and the benchmark harness' per-stage breakdowns.
// A query carries one span tree through the execution path — master
// (plan / load-dims / execute / finalize), stem servers, leaf tasks, and
// inside a leaf the scan with its SmartIndex, SSD-cache and storage
// activity. Every span records both wall-clock duration (real in-process
// time) and simulated time (the sim.CostModel charges that stand in for
// the paper's 4,000-node hardware), plus named counters (rows, index and
// cache hits) and free-form attributes.
//
// Spans cross a call only inside messages, the same way on every fabric: a
// traced callee records its work under a local holder span (New) and returns
// the holder in its reply (AppendSpan, ReadSpan), and the caller merges it
// into the span it holds for that call (Adopt). Within one process a span
// rides the context (NewContext, StartSpan). All Span methods are safe on a
// nil receiver and StartSpan is a no-op without an active trace, so the hot
// path pays nothing when tracing is off.
package trace

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/types"
)

// Span is one node of a query's trace tree. Spans are safe for concurrent
// use: sibling tasks running on different goroutines attach children and
// counters under the span's lock.
type Span struct {
	name string

	mu       sync.Mutex
	start    time.Time
	wall     time.Duration
	sim      time.Duration
	attrs    []Attr
	counts   map[string]int64
	children []*Span
}

// Attr is one key=value label on a span.
type Attr struct {
	Key, Value string
}

// New starts a root span.
func New(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Start returns the span's wall-clock start time (zero on nil) — the
// anchor for exported trace formats (Jaeger startTime).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.start
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Child starts a child span. Safe on nil (returns nil).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Finish records the span's wall-clock duration. Safe on nil; calling
// Finish twice keeps the first measurement.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.wall == 0 {
		s.wall = time.Since(s.start)
	}
	s.mu.Unlock()
}

// SetWall overwrites the span's wall-clock duration — for spans measuring
// an interval that happened before the span object existed (e.g. admission
// queue wait, measured before the trace root is created). A later Finish
// keeps this value.
func (s *Span) SetWall(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.wall = d
	s.mu.Unlock()
}

// AddSim charges simulated time to the span.
func (s *Span) AddSim(d time.Duration) {
	if s == nil || d == 0 {
		return
	}
	s.mu.Lock()
	s.sim += d
	s.mu.Unlock()
}

// SetSim overwrites the span's simulated time (used for critical-path
// summaries where charges would double-count).
func (s *Span) SetSim(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.sim = d
	s.mu.Unlock()
}

// Sim returns the span's own simulated time (excluding children).
func (s *Span) Sim() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sim
}

// Wall returns the span's wall-clock duration (zero before Finish).
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wall
}

// Count adds n to a named counter on the span.
func (s *Span) Count(name string, n int64) {
	if s == nil || n == 0 {
		return
	}
	s.mu.Lock()
	if s.counts == nil {
		s.counts = make(map[string]int64)
	}
	s.counts[name] += n
	s.mu.Unlock()
}

// countKeys returns the span's counter names in order; s.mu is held.
func (s *Span) countKeys() []string {
	keys := make([]string, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CountValue returns a counter's value (0 when absent or nil span).
func (s *Span) CountValue(name string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[name]
}

// Counts returns a copy of the span's counters.
func (s *Span) Counts() map[string]int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.counts)
}

// SetAttr sets a key=value label (replacing an existing key).
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// Attr returns a label's value ("" when absent).
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Adopt merges h, a callee's holder span out of a reply, into s: h's
// counters add to s's and h's children append to s's, in order; h's own
// name, times and attributes are dropped. Safe on a nil s or h.
func (s *Span) Adopt(h *Span) {
	if s == nil || h == nil {
		return
	}
	for k, v := range h.Counts() {
		s.Count(k, v)
	}
	children := h.Children()
	s.mu.Lock()
	s.children = append(s.children, children...)
	s.mu.Unlock()
}

// Children returns a copy of the span's current children.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// size counts the spans of the subtree. Children only ever append, so the
// ones a span held under its lock stay as they were.
func (s *Span) size() int {
	s.mu.Lock()
	children := s.children
	s.mu.Unlock()
	n := 1
	for _, c := range children {
		n += c.size()
	}
	return n
}

// Find returns the first span in the subtree (depth-first, s included)
// whose name starts with prefix, or nil.
func (s *Span) Find(prefix string) *Span {
	if s == nil {
		return nil
	}
	if strings.HasPrefix(s.Name(), prefix) {
		return s
	}
	for _, c := range s.Children() {
		if hit := c.Find(prefix); hit != nil {
			return hit
		}
	}
	return nil
}

// FindAll returns every span in the subtree whose name starts with prefix,
// depth-first.
func (s *Span) FindAll(prefix string) []*Span {
	if s == nil {
		return nil
	}
	return s.findAll(prefix, nil)
}

// findAll appends FindAll's spans to out.
func (s *Span) findAll(prefix string, out []*Span) []*Span {
	if strings.HasPrefix(s.Name(), prefix) {
		out = append(out, s)
	}
	for _, c := range s.Children() {
		out = c.findAll(prefix, out)
	}
	return out
}

// TotalSim returns the span's own simulated time plus all descendants'.
// Parallel children sum (busy time), so this is an activity total, not a
// response time; per-level critical paths are set by the servers that own
// the fan-out.
func (s *Span) TotalSim() time.Duration {
	if s == nil {
		return 0
	}
	total := s.Sim()
	for _, c := range s.Children() {
		total += c.TotalSim()
	}
	return total
}

// Render formats the span tree, one span per line:
//
//	name  sim=12.3ms wall=1.04ms  rows.scanned=4096 index.hit=3  {part=/hdfs/t1/p0}
//	├─ child ...
func (s *Span) Render() string {
	if s == nil {
		return ""
	}
	var sb strings.Builder
	s.render(&sb, "", "")
	return sb.String()
}

func (s *Span) render(sb *strings.Builder, selfPrefix, childPrefix string) {
	sb.WriteString(selfPrefix)
	sb.WriteString(s.Name())

	s.mu.Lock()
	sim, wall := s.sim, s.wall
	attrs := append([]Attr(nil), s.attrs...)
	counts := make([]string, 0, len(s.counts))
	for k, v := range s.counts {
		counts = append(counts, fmt.Sprintf("%s=%d", k, v))
	}
	s.mu.Unlock()
	sort.Strings(counts)

	if sim > 0 {
		fmt.Fprintf(sb, "  sim=%s", fmtDur(sim))
	}
	if wall > 0 {
		fmt.Fprintf(sb, " wall=%s", fmtDur(wall))
	}
	if len(counts) > 0 {
		sb.WriteString("  " + strings.Join(counts, " "))
	}
	if len(attrs) > 0 {
		parts := make([]string, len(attrs))
		for i, a := range attrs {
			parts[i] = a.Key + "=" + a.Value
		}
		sb.WriteString("  {" + strings.Join(parts, " ") + "}")
	}
	sb.WriteByte('\n')

	children := s.Children()
	for i, c := range children {
		if i == len(children)-1 {
			c.render(sb, childPrefix+"└─ ", childPrefix+"   ")
		} else {
			c.render(sb, childPrefix+"├─ ", childPrefix+"│  ")
		}
	}
}

// fmtDur rounds durations for readable rendering.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(time.Nanosecond).String()
	}
}

type spanKey struct{}

// NewContext attaches a span to the context; downstream servers and
// executors hang their spans off it.
func NewContext(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// FromContext returns the context's active span, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan begins a child of the context's active span and returns a
// context carrying the child. Without an active trace it returns the
// context unchanged and a nil span (all of whose methods are no-ops).
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	c := parent.Child(name)
	return NewContext(ctx, c), c
}

// maxDepth bounds the nesting ReadSpan accepts; a real tree is a handful of
// levels deep.
const maxDepth = 32

// AppendSpan appends the wire form of s's subtree (Adopt): a presence byte,
// alone for a nil span, then per span its name, start (unix ns), wall, sim,
// attributes, counters in name order and children.
func AppendSpan(b []byte, s *Span) []byte {
	if s == nil {
		return append(b, 0)
	}
	return appendTree(append(b, 1), s)
}

func appendTree(b []byte, s *Span) []byte {
	s.mu.Lock()
	b = binary.AppendVarint(types.AppendString(b, s.name), s.start.UnixNano())
	b = binary.AppendVarint(binary.AppendVarint(b, int64(s.wall)), int64(s.sim))
	b = binary.AppendUvarint(b, uint64(len(s.attrs)))
	for _, a := range s.attrs {
		b = types.AppendString(types.AppendString(b, a.Key), a.Value)
	}
	b = binary.AppendUvarint(b, uint64(len(s.counts)))
	for _, k := range s.countKeys() {
		b = binary.AppendVarint(types.AppendString(b, k), s.counts[k])
	}
	children := s.children
	s.mu.Unlock()
	b = binary.AppendUvarint(b, uint64(len(children)))
	for _, c := range children {
		b = appendTree(b, c)
	}
	return b
}

// ReadSpan reads a span tree written by AppendSpan. Every count is checked
// against the bytes present before anything is allocated for it, and nesting
// past maxDepth fails the reader like any malformed field.
func ReadSpan(r *types.Reader) *Span {
	if !r.Bool() {
		return nil
	}
	return readTree(r, 0)
}

func readTree(r *types.Reader, depth int) *Span {
	if depth == maxDepth {
		r.Fail("span nesting too deep")
		return nil
	}
	s := &Span{name: r.Str(), start: time.Unix(0, r.Varint()), wall: time.Duration(r.Varint()), sim: time.Duration(r.Varint())}
	if n := r.Len(2); n > 0 { // a key and a value
		s.attrs = make([]Attr, n)
		for i := range s.attrs {
			s.attrs[i] = Attr{Key: r.Str(), Value: r.Str()}
		}
	}
	if n := r.Len(2); n > 0 { // a name and a value
		s.counts = make(map[string]int64, n)
		for range n {
			k := r.Str()
			s.counts[k] += r.Varint()
		}
	}
	if n := r.Len(7); n > 0 { // a name, three times and three counts
		s.children = make([]*Span, n)
		for i := range s.children {
			s.children[i] = readTree(r, depth+1)
		}
	}
	return s
}
