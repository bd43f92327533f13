// Package telemetry is Feisu's fleet-observability surface: the net/http
// endpoints every master serves, read from the master alone —
// Prometheus-format metrics (/metrics), a cluster health probe (/healthz),
// the slow-query log (/debug/slowlog), live queries (/debug/queries),
// finished traces (/debug/trace/), the flight recorder (/debug/events)
// and, behind a flag, pprof. It complements the per-query trace spans of
// package trace: spans answer "where did this query go", telemetry answers
// "how is the fleet doing" without attaching a tracer to each request.
package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Version identifies the build on feisu_build_info; binaries may overwrite
// it at startup (or via -ldflags "-X repro/internal/telemetry.Version=...").
var Version = "dev"

// Server is a running exporter.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// handlers serve what one master knows: its registry, its fleet view, its
// live queries, its flight recorder and its ring of finished statements.
type handlers struct {
	m       *cluster.Master
	started time.Time
}

// NewMux returns the endpoints every master serves, reading everything from
// m; a caller may add its own routes to it before serving it.
func NewMux(m *cluster.Master, enablePprof bool) *http.ServeMux {
	h := &handlers{m: m, started: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", h.handleMetrics)
	mux.HandleFunc("/healthz", h.handleHealthz)
	mux.HandleFunc("/debug/slowlog", h.handleSlowlog)
	mux.HandleFunc("/debug/queries", h.handleQueries)
	mux.HandleFunc("/debug/trace/", h.handleTrace)
	mux.HandleFunc("/debug/events", h.handleEvents)
	if enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Start listens on addr (host:port; port 0 picks an ephemeral port) and
// serves m's endpoints (NewMux) until Close.
func Start(addr string, m *cluster.Master, enablePprof bool) (*Server, error) {
	return Serve(addr, NewMux(m, enablePprof))
}

// Serve listens on addr and serves h until Close.
func Serve(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (useful with an ephemeral port).
func (s *Server) Addr() string {
	return s.ln.Addr().String()
}

// URL returns the exporter's base URL.
func (s *Server) URL() string {
	return "http://" + s.Addr()
}

// Close stops the exporter gracefully: in-flight scrapes get a short grace
// period to finish before the listener and remaining connections are torn
// down (a scrape cut mid-body used to surface as a truncated /metrics page).
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}

func (h *handlers) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	fams := mergeFamilies(h.m.Metrics().Families(), append(healthFamilies(h.m.Health()), h.buildFamilies()...))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WriteText(w, fams)
}

// buildFamilies emits the exporter's own series: feisu_build_info (constant
// 1, version/go labels), feisu_uptime_seconds since NewMux and the Go
// runtime's (goRuntime).
func (h *handlers) buildFamilies() []metrics.Family {
	info := metrics.Family{Name: "feisu_build_info", Type: metrics.TypeGauge}
	info.Samples = append(info.Samples, metrics.Sample{
		Labels: []metrics.Label{metrics.L("go", runtime.Version()), metrics.L("version", Version)},
		Value:  1,
	})
	up := metrics.Family{Name: "feisu_uptime_seconds", Type: metrics.TypeGauge}
	up.Samples = append(up.Samples, metrics.Sample{Value: time.Since(h.started).Seconds()})
	return append([]metrics.Family{info, up}, runtimeFamilies()...)
}

// goRuntime maps the Go runtime metrics /metrics exports to their series:
// the garbage collector's CPU, what the heap allocated, GC cycles and the
// live heap. They are read once per scrape and cost nothing between scrapes.
var goRuntime = []struct {
	from, name string
	typ        metrics.FamilyType
}{
	{"/cpu/classes/gc/total:cpu-seconds", "feisu_go_gc_cpu_seconds_total", metrics.TypeCounter},
	{"/gc/heap/allocs:bytes", "feisu_go_heap_allocs_bytes_total", metrics.TypeCounter},
	{"/gc/cycles/total:gc-cycles", "feisu_go_gc_cycles_total", metrics.TypeCounter},
	{"/gc/heap/live:bytes", "feisu_go_heap_live_bytes", metrics.TypeGauge},
}

// runtimeFamilies reads goRuntime's metrics now.
func runtimeFamilies() []metrics.Family {
	samples := make([]rtmetrics.Sample, len(goRuntime))
	for i, g := range goRuntime {
		samples[i].Name = g.from
	}
	rtmetrics.Read(samples)
	out := make([]metrics.Family, len(goRuntime))
	for i, g := range goRuntime {
		v := 0.0
		switch samples[i].Value.Kind() {
		case rtmetrics.KindUint64:
			v = float64(samples[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			v = samples[i].Value.Float64()
		}
		out[i] = metrics.Family{Name: g.name, Type: g.typ, Samples: []metrics.Sample{{Value: v}}}
	}
	return out
}

func (h *handlers) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	health := h.m.Health()
	if health.Healthy() {
		fmt.Fprintf(w, "ok: %d nodes alive\n", health.Alive)
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintf(w, "unhealthy: %d alive, %d degraded, %d dead\n", health.Alive, health.Degraded, health.Dead)
	for _, n := range health.Nodes {
		if n.State != cluster.StateAlive {
			fmt.Fprintf(w, "  %s (%s): %s, last heartbeat %s ago\n", n.Name, n.Kind, n.State, n.Age.Round(time.Millisecond))
		}
	}
}

// handleSlowlog serves the slow-query log: the slow statements of the
// master's ring, newest first (?n= bounds the count, ?format=json).
func (h *handlers) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	ring := h.m.Traces()
	slow := ring.Slow()
	if n := queryInt(r, "n"); n > 0 && n < len(slow) {
		slow = slow[:n]
	}
	if wantJSON(r) {
		writeJSON(w, map[string]any{"total": ring.SlowTotal(), "entries": slowEntries(slow)})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "slow queries recorded: %d (showing most recent %d)\n\n", ring.SlowTotal(), len(slow))
	fmt.Fprint(w, RenderSlowlog(slow))
}

// handleQueries serves the live per-query progress table (?format=json for
// the structured form) — the HTTP face of the REPL's `\watch`.
func (h *handlers) handleQueries(w http.ResponseWriter, r *http.Request) {
	active := h.m.ActiveQueries()
	if wantJSON(r) {
		writeJSON(w, map[string]any{"active": len(active), "queries": active})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, cluster.RenderProgress(active))
}

// handleTrace serves finished traces: /debug/trace/ lists what the ring
// keeps, /debug/trace/{id} returns one trace (by query ID or plan
// fingerprint) as Jaeger-compatible JSON, importable into the Jaeger UI.
func (h *handlers) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if id == "" {
		type row struct {
			QueryID     string        `json:"queryId"`
			Fingerprint string        `json:"fingerprint"`
			SQL         string        `json:"sql"`
			When        time.Time     `json:"when"`
			Wall        time.Duration `json:"wall"`
			Sim         time.Duration `json:"sim"`
			Slow        bool          `json:"slow"`
		}
		rows := []row{}
		for _, t := range h.m.Traces().Traces() {
			rows = append(rows, row{t.QueryID, t.Fingerprint, t.SQL, t.When, t.Wall, t.Sim, t.Slow})
		}
		writeJSON(w, map[string]any{"traces": rows})
		return
	}
	t, ok := h.m.Traces().Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("no retained trace for %q", id), http.StatusNotFound)
		return
	}
	writeJSON(w, trace.ToJaeger(t))
}

// handleEvents serves the flight recorder's retained journal, newest last.
// ?format=json returns the raw events; ?n= bounds the count (most recent
// kept); ?query= filters by causal query ID.
func (h *handlers) handleEvents(w http.ResponseWriter, r *http.Request) {
	rec := h.m.Events()
	evs := rec.Events()
	if q := r.URL.Query().Get("query"); q != "" {
		evs = rec.ForQuery(q)
	}
	if n := queryInt(r, "n"); n > 0 && n < len(evs) {
		evs = evs[len(evs)-n:]
	}
	if wantJSON(r) {
		writeJSON(w, map[string]any{"total": rec.Total(), "dropped": rec.Dropped(), "events": evs})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "events recorded: %d, overwritten: %d (showing %d)\n\n", rec.Total(), rec.Dropped(), len(evs))
	for _, e := range evs {
		fmt.Fprintln(w, e.String())
	}
}

// wantJSON reports whether the request asked for ?format=json.
func wantJSON(r *http.Request) bool {
	return r.URL.Query().Get("format") == "json"
}

// queryInt parses an integer query parameter, 0 when absent or malformed.
func queryInt(r *http.Request, key string) int {
	n, err := strconv.Atoi(r.URL.Query().Get(key))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// writeJSON marshals v with indentation onto the response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// healthFamilies converts a ClusterHealth view into gauge families. Load
// gauges are emitted only for non-stale nodes — a dead leaf's series
// disappears from the scrape rather than freezing at its last value —
// while feisu_node_up and feisu_node_stale always report every known node.
func healthFamilies(h cluster.ClusterHealth) []metrics.Family {
	mk := func(name string) metrics.Family {
		return metrics.Family{Name: name, Type: metrics.TypeGauge}
	}
	up := mk("feisu_node_up")
	stale := mk("feisu_node_stale")
	active := mk("feisu_node_active_tasks")
	queue := mk("feisu_node_queue_depth")
	done := mk("feisu_node_tasks_done")
	idxBytes := mk("feisu_node_index_bytes")
	idxEntries := mk("feisu_node_index_entries")
	idxBudget := mk("feisu_node_index_budget_bytes")
	cacheRatio := mk("feisu_node_cache_hit_ratio")
	cacheEvict := mk("feisu_node_cache_evictions")
	cacheBytes := mk("feisu_node_cache_bytes")

	for _, n := range h.Nodes {
		labels := []metrics.Label{metrics.L("kind", n.Kind.String()), metrics.L("node", n.Name)}
		add := func(f *metrics.Family, v float64) {
			f.Samples = append(f.Samples, metrics.Sample{Labels: labels, Value: v})
		}
		add(&up, boolGauge(n.State != cluster.StateDead))
		add(&stale, boolGauge(n.Stale))
		if n.Stale {
			continue
		}
		add(&active, float64(n.Load.ActiveTasks))
		add(&queue, float64(n.Load.QueueDepth))
		add(&done, float64(n.Load.TasksDone))
		add(&idxBytes, float64(n.Load.IndexBytes))
		add(&idxEntries, float64(n.Load.IndexEntries))
		if n.Load.IndexBudget > 0 {
			add(&idxBudget, float64(n.Load.IndexBudget))
		}
		if n.Load.CacheHits+n.Load.CacheMisses > 0 {
			add(&cacheRatio, n.Load.CacheHitRatio())
		}
		add(&cacheEvict, float64(n.Load.CacheEvictions))
		add(&cacheBytes, float64(n.Load.CacheBytes))
	}
	var out []metrics.Family
	for _, f := range []metrics.Family{up, stale, active, queue, done, idxBytes, idxEntries, idxBudget, cacheRatio, cacheEvict, cacheBytes} {
		if len(f.Samples) > 0 {
			out = append(out, f)
		}
	}
	return out
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// mergeFamilies combines two family sets back into one name-sorted list.
func mergeFamilies(a, b []metrics.Family) []metrics.Family {
	out := append(append([]metrics.Family(nil), a...), b...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
