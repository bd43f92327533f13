package trace

import (
	"fmt"
	"hash/fnv"
	"strconv"
)

// Jaeger-compatible JSON trace export: the structures below marshal into
// the document shape Jaeger's HTTP API serves (GET /api/traces/{id}), so
// a stored Feisu trace drops straight into the Jaeger UI or any tooling
// built against it. Wall-clock start/duration map onto Jaeger's native
// microsecond fields; the cost model's simulated durations, counters and
// attributes ride along as span tags.

// JaegerDoc is the top-level export document: {"data": [trace]}.
type JaegerDoc struct {
	Data []JaegerTrace `json:"data"`
}

// JaegerTrace is one trace with its flattened span list.
type JaegerTrace struct {
	TraceID   string                   `json:"traceID"`
	Spans     []JaegerSpan             `json:"spans"`
	Processes map[string]JaegerProcess `json:"processes"`
}

// JaegerSpan is one span in Jaeger's flat representation; parent links are
// CHILD_OF references.
type JaegerSpan struct {
	TraceID       string      `json:"traceID"`
	SpanID        string      `json:"spanID"`
	OperationName string      `json:"operationName"`
	References    []JaegerRef `json:"references"`
	StartTime     int64       `json:"startTime"` // µs since epoch
	Duration      int64       `json:"duration"`  // µs
	Tags          []JaegerTag `json:"tags"`
	ProcessID     string      `json:"processID"`
}

// JaegerRef links a span to its parent.
type JaegerRef struct {
	RefType string `json:"refType"`
	TraceID string `json:"traceID"`
	SpanID  string `json:"spanID"`
}

// JaegerTag is one key/value annotation.
type JaegerTag struct {
	Key   string `json:"key"`
	Type  string `json:"type"`
	Value any    `json:"value"`
}

// JaegerProcess names the emitting service.
type JaegerProcess struct {
	ServiceName string `json:"serviceName"`
}

// ToJaeger converts a stored trace into the Jaeger JSON document shape.
// The trace ID is derived from the query ID (stable across exports of the
// same query); span IDs are depth-first ordinals.
func ToJaeger(t StoredTrace) JaegerDoc {
	traceID := hashID(t.QueryID + "|" + t.Fingerprint)
	jt := JaegerTrace{
		TraceID:   traceID,
		Processes: map[string]JaegerProcess{"p1": {ServiceName: "feisu"}},
	}
	var next int
	var walk func(s *Span, parent string)
	walk = func(s *Span, parent string) {
		next++
		id := spanID(next)
		js := JaegerSpan{
			TraceID:       traceID,
			SpanID:        id,
			OperationName: s.Name(),
			References:    []JaegerRef{},
			StartTime:     s.Start().UnixMicro(),
			Duration:      s.Wall().Microseconds(),
			ProcessID:     "p1",
		}
		if parent != "" {
			js.References = []JaegerRef{{RefType: "CHILD_OF", TraceID: traceID, SpanID: parent}}
		}
		s.mu.Lock()
		sim, attrs, keys := s.sim, s.attrs, s.countKeys()
		js.Tags = make([]JaegerTag, 0, 1+len(keys)+len(attrs))
		if sim > 0 {
			js.Tags = append(js.Tags, JaegerTag{Key: "sim_us", Type: "int64", Value: sim.Microseconds()})
			// Wall duration can round to 0µs for in-process spans; surface the
			// simulated duration there too so the UI shows a usable bar.
			if js.Duration == 0 {
				js.Duration = sim.Microseconds()
			}
		}
		for _, k := range keys {
			js.Tags = append(js.Tags, JaegerTag{Key: k, Type: "int64", Value: s.counts[k]})
		}
		for _, a := range attrs {
			js.Tags = append(js.Tags, JaegerTag{Key: a.Key, Type: "string", Value: a.Value})
		}
		s.mu.Unlock()
		jt.Spans = append(jt.Spans, js)
		for _, c := range s.Children() {
			walk(c, id)
		}
	}
	if t.Root != nil {
		jt.Spans = make([]JaegerSpan, 0, t.Root.size())
		walk(t.Root, "")
		// Root-level metadata tags.
		if len(jt.Spans) > 0 {
			root := &jt.Spans[0]
			if t.QueryID != "" {
				root.Tags = append(root.Tags, JaegerTag{Key: "query.id", Type: "string", Value: t.QueryID})
			}
			if t.Fingerprint != "" {
				root.Tags = append(root.Tags, JaegerTag{Key: "query.fingerprint", Type: "string", Value: t.Fingerprint})
			}
			if t.SQL != "" {
				root.Tags = append(root.Tags, JaegerTag{Key: "query.sql", Type: "string", Value: t.SQL})
			}
			if t.Sim > 0 {
				root.Tags = append(root.Tags, JaegerTag{Key: "query.sim_us", Type: "int64", Value: t.Sim.Microseconds()})
			}
		}
	}
	return JaegerDoc{Data: []JaegerTrace{jt}}
}

// spanID renders a span ordinal as Jaeger's 16 hex digits, zero-padded.
func spanID(n int) string {
	var buf [32]byte
	b := strconv.AppendUint(append(buf[:0], "0000000000000000"...), uint64(n), 16)
	return string(b[len(b)-16:])
}

// hashID derives a stable 128-bit hex trace ID from a string key.
func hashID(key string) string {
	h1 := fnv.New64a()
	h1.Write([]byte(key))
	h2 := fnv.New64a()
	h2.Write([]byte("feisu|" + key))
	return fmt.Sprintf("%016x%016x", h1.Sum64(), h2.Sum64())
}
