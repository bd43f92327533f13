// Package cache implements Feisu's SSD data-cache tier (paper §IV-B): an
// LRU cache of column chunks in front of the storage plugins. The paper
// found that purely automatic admission performs poorly under ad-hoc load
// ("all of which incur more than 80% of cache miss rates"), so admission is
// gated by manually configured preferences: only data under preferred path
// prefixes is cached.
//
// A chunk is keyed by the footer it was read through, not by its path: a
// rewritten partition file comes with a new footer (a new generation, see
// plan.PartitionMeta.Gen), so its predecessor's chunks are never served for
// it and age out under the LRU budget.
package cache

import (
	"context"
	"errors"
	"strings"
	"sync"

	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/lru"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Options configure the SSD cache.
type Options struct {
	// CapacityBytes caps resident cached bytes; <=0 disables the cache.
	CapacityBytes int64
	// Prefixes lists the path prefixes admitted to the cache (the paper's
	// manual preferences). Empty admits nothing.
	Prefixes []string
	// Model prices SSD hits; nil disables cost accounting.
	Model *sim.CostModel
}

// Reader wraps a PartitionReader with an SSD column-chunk cache. Hits are
// billed as SSD reads instead of reaching the underlying store. Concurrent
// misses on one chunk are deduplicated: the first reader fetches from
// storage while herd followers wait on the in-flight call and are billed
// (and counted) as hits, so a miss herd issues exactly one storage read.
type Reader struct {
	inner exec.PartitionReader
	opt   Options

	mu       sync.Mutex
	items    map[chunk]*item
	inflight map[chunk]*inflightCall
	lru      lru.List[*item]

	Hits   metrics.Counter
	Misses metrics.Counter
	// Bypass counts reads not admitted by preference.
	Bypass metrics.Counter
	// HerdWaits counts reads that joined an in-flight fetch instead of
	// issuing a duplicate storage read.
	HerdWaits metrics.Counter
	// Evictions counts chunks pushed out by LRU capacity pressure.
	Evictions metrics.Counter
}

// chunk identifies one column chunk of one footer.
type chunk struct {
	meta       *colstore.FileMeta
	block, col int
}

type item struct {
	lru.Node[*item]
	key chunk
	col *colstore.Column
}

// inflightCall is one outstanding storage fetch that duplicate misses
// join. col and err are written before done is closed.
type inflightCall struct {
	done chan struct{}
	col  *colstore.Column
	err  error
}

// NewReader wraps inner with the cache.
func NewReader(inner exec.PartitionReader, opt Options) *Reader {
	return &Reader{inner: inner, opt: opt, items: make(map[chunk]*item), inflight: make(map[chunk]*inflightCall)}
}

// RegisterMetrics publishes the cache's counters into a central registry
// under the given name prefix (e.g. "leaf0.cache.").
func (r *Reader) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.Register(prefix+"hits", &r.Hits)
	reg.Register(prefix+"misses", &r.Misses)
	reg.Register(prefix+"bypass", &r.Bypass)
	reg.Register(prefix+"herd_waits", &r.HerdWaits)
	reg.Register(prefix+"evictions", &r.Evictions)
}

// Meta delegates to the wrapped reader.
func (r *Reader) Meta(ctx context.Context, part plan.PartitionMeta) (*colstore.FileMeta, error) {
	return r.inner.Meta(ctx, part)
}

// admitted applies the manual preference rule.
func (r *Reader) admitted(path string) bool {
	for _, p := range r.opt.Prefixes {
		if strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}

// Column serves a column chunk, from SSD when cached.
func (r *Reader) Column(ctx context.Context, path string, meta *colstore.FileMeta, block, col int) (*colstore.Column, error) {
	if r.opt.CapacityBytes <= 0 || !r.admitted(path) {
		r.Bypass.Inc()
		trace.FromContext(ctx).Count("cache.bypass", 1)
		return r.inner.Column(ctx, path, meta, block, col)
	}
	key := chunk{meta, block, col}
	size := chunkSize(meta, block, col)

	r.mu.Lock()
	if it, ok := r.items[key]; ok {
		r.lru.Touch(it)
		colv := it.col
		r.mu.Unlock()
		r.chargeHit(ctx, size)
		return colv, nil
	}
	if call, ok := r.inflight[key]; ok {
		// Another reader is already fetching this chunk: wait for it
		// instead of issuing a duplicate storage read. Followers are
		// billed as hits — by the time the leader's read completes, the
		// chunk is on SSD for them.
		r.mu.Unlock()
		r.HerdWaits.Inc()
		select {
		case <-call.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if call.err != nil {
			// The leader's own deadline or cancellation is not this
			// reader's: while its context is live, it reads again.
			if ctx.Err() == nil && (errors.Is(call.err, context.Canceled) || errors.Is(call.err, context.DeadlineExceeded)) {
				return r.Column(ctx, path, meta, block, col)
			}
			return nil, call.err
		}
		r.chargeHit(ctx, size)
		return call.col, nil
	}
	call := &inflightCall{done: make(chan struct{})}
	r.inflight[key] = call
	r.mu.Unlock()
	r.Misses.Inc()
	trace.FromContext(ctx).Count("cache.miss", 1)

	c, err := r.inner.Column(ctx, path, meta, block, col)

	r.mu.Lock()
	delete(r.inflight, key)
	// Only the call in inflight[key] stores key, so the chunk is not here.
	if err == nil && size <= r.opt.CapacityBytes {
		it := &item{key: key, col: c}
		r.items[key] = it
		r.lru.PushFront(it, size)
		for r.lru.Bytes() > r.opt.CapacityBytes {
			old := r.lru.Oldest()
			r.lru.Remove(old)
			delete(r.items, old.key)
			r.Evictions.Inc()
		}
	}
	r.mu.Unlock()
	call.col, call.err = c, err
	close(call.done)
	return c, err
}

// chargeHit counts and bills one cache hit as an SSD read.
func (r *Reader) chargeHit(ctx context.Context, size int64) {
	r.Hits.Inc()
	trace.FromContext(ctx).Count("cache.hit", 1)
	if b := storage.BillFrom(ctx); b != nil && r.opt.Model != nil {
		b.ChargeRead(r.opt.Model, sim.DeviceSSD, size)
	}
}

func chunkSize(meta *colstore.FileMeta, block, col int) int64 {
	if block < len(meta.Blocks) && col < len(meta.Blocks[block].ColExtents) {
		return meta.Blocks[block].ColExtents[col].Len
	}
	return 0
}

// Bytes returns resident cached bytes.
func (r *Reader) Bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Bytes()
}

// CacheLoad reports the cache's heartbeat gauges. It implements
// cluster.CacheLoadReporter without importing the cluster package.
func (r *Reader) CacheLoad() (hits, misses, evictions, bytes, capacity int64) {
	return r.Hits.Value(), r.Misses.Value(), r.Evictions.Value(), r.Bytes(), r.opt.CapacityBytes
}

// MissRatio returns misses / (hits + misses); 0 with no traffic.
func (r *Reader) MissRatio() float64 {
	h, m := r.Hits.Value(), r.Misses.Value()
	if h+m == 0 {
		return 0
	}
	return float64(m) / float64(h+m)
}
