package feisu

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/plan"
)

// History collects per-user predicate usage — the paper's client-side
// query-history collection (§III-C): once a user repeats a predicate
// PinThreshold times, the predicate is pinned in every leaf's SmartIndex
// as that user community's private index, surviving TTL expiry while
// memory lasts.
type History struct {
	sys       *System
	threshold int

	mu     sync.Mutex
	counts map[string]map[string]int // user -> atom key -> uses
	pinned map[string]bool
}

// ObserveQuery implements cluster.PredicateObserver.
func (h *History) ObserveQuery(user string, atomKeys []string) {
	if len(atomKeys) == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	byUser, ok := h.counts[user]
	if !ok {
		byUser = make(map[string]int)
		h.counts[user] = byUser
	}
	for _, k := range atomKeys {
		byUser[k]++
		if byUser[k] >= h.threshold && !h.pinned[k] {
			h.pinned[k] = true
			for _, si := range h.sys.smart {
				si.PinAtom(k)
			}
		}
	}
}

// HotPredicates returns the user's predicates seen at least min times,
// most-used first.
func (h *History) HotPredicates(user string, min int) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	type kv struct {
		k string
		n int
	}
	var hot []kv
	for k, n := range h.counts[user] {
		if n >= min {
			hot = append(hot, kv{k, n})
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].n != hot[j].n {
			return hot[i].n > hot[j].n
		}
		return hot[i].k < hot[j].k
	})
	out := make([]string, len(hot))
	for i, e := range hot {
		out[i] = e.k
	}
	return out
}

// PinnedPredicates returns the atoms currently pinned by history.
func (h *History) PinnedPredicates() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.pinned))
	for k := range h.pinned {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// History returns the query-history collector, or nil when personalization
// is off (Config.PersonalizeThreshold == 0).
func (s *System) History() *History { return s.history }

// WatchJSON starts the leaf-side conversion process of paper §III-B: a
// watcher polls srcPrefix for raw JSON-lines files, converts them into
// columnar partitions under dstPrefix, and extends the table's catalog
// entry as data arrives. The returned stop function halts the watcher.
//
// The table is registered immediately (possibly empty) so queries work
// from the start; each delivered batch re-registers it with the grown
// partition list.
func (s *System) WatchJSON(table string, schema *Schema, srcPrefix, dstPrefix string, interval time.Duration) (stop func(), err error) {
	if err := s.RegisterTable(context.Background(), &plan.TableMeta{Name: table, Schema: schema}); err != nil {
		return nil, err
	}
	w := &ingest.Watcher{
		Conv: s.converter(table, schema, srcPrefix, dstPrefix),
		OnNew: func(ctx context.Context, fresh []plan.PartitionMeta) error {
			return s.extend(ctx, table, schema, fresh)
		},
	}
	w.Start(interval)
	return w.Stop, nil
}

// IngestOnce converts whatever raw JSON files currently sit under
// srcPrefix and registers (or extends) the table synchronously — the
// one-shot form of WatchJSON for batch loads and tests.
func (s *System) IngestOnce(ctx context.Context, table string, schema *Schema, srcPrefix, dstPrefix string) (int64, error) {
	conv := s.converter(table, schema, srcPrefix, dstPrefix)
	parts, err := conv.ScanOnce(ctx)
	if err != nil {
		return 0, err
	}
	var rows int64
	for _, p := range parts {
		rows += p.Rows
	}
	return rows, s.extend(ctx, table, schema, parts)
}

// extend registers the table's catalog entry grown by freshly converted
// partitions. A restarted converter can reuse sequence numbers and rewrite a
// path already in the catalog; the fresh scan's metadata supersedes the old
// entry (its row count and block layout changed with the file), and its Gen
// 0 puts the path at a fresh generation.
func (s *System) extend(ctx context.Context, table string, schema *Schema, parts []plan.PartitionMeta) error {
	fresh := make(map[string]bool, len(parts))
	for _, p := range parts {
		fresh[p.Path] = true
	}
	meta := &plan.TableMeta{Name: table, Schema: schema}
	if existing, err := s.master.Jobs.Lookup(table); err == nil {
		for _, p := range existing.Partitions {
			if !fresh[p.Path] {
				meta.Partitions = append(meta.Partitions, p)
			}
		}
	}
	meta.Partitions = append(meta.Partitions, parts...)
	return s.RegisterTable(ctx, meta)
}

// converter returns the table's converter, creating it on first use so
// repeated ingests never re-process or overwrite earlier output.
func (s *System) converter(table string, schema *Schema, srcPrefix, dstPrefix string) *ingest.Converter {
	s.convMu.Lock()
	defer s.convMu.Unlock()
	if s.convs == nil {
		s.convs = make(map[string]*ingest.Converter)
	}
	if c, ok := s.convs[table]; ok {
		return c
	}
	c := &ingest.Converter{
		Router:    s.router,
		Schema:    schema,
		SrcPrefix: srcPrefix,
		DstPrefix: dstPrefix,
	}
	s.convs[table] = c
	return c
}
