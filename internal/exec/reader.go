package exec

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/colstore"
	"repro/internal/lru"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// footerBound caps the encoded footer bytes a StoreReader holds. All live
// footers of a benchmark workload take 7.25–7.48 MiB, so none is evicted.
const footerBound = 64 << 20

// StoreReader reads partition metadata and column chunks through the common
// storage layer with range reads, caching one footer per path with the
// generation it was read at and the block ids rendered at it (footers are
// immutable per generation — the leaf's light-weight process holds them,
// paper §III-B). Footers are not
// small: each carries every block's stats, bloom filters included, so the
// least recently used leave once their encoded lengths pass footerBound.
type StoreReader struct {
	Router *storage.Router

	mu    sync.Mutex
	metas map[string]*cachedMeta
	lru   lru.List[*cachedMeta]
	bound int64 // footerBound; only tests lower it
}

type cachedMeta struct {
	lru.Node[*cachedMeta]
	path string
	gen  uint64
	meta *colstore.FileMeta
}

// NewStoreReader wraps a storage router.
func NewStoreReader(r *storage.Router) *StoreReader {
	return &StoreReader{Router: r, metas: make(map[string]*cachedMeta), bound: footerBound}
}

// Meta implements PartitionReader: the footer is located via the fixed-size
// tail, then range-read, checked against the tail's CRC and parsed once per
// generation. A newer generation rereads it; an older one is served the
// newer footer and never replaces it. A footer that fails its checksum is
// colstore.ErrChecksum and a tail that does not parse types.ErrCorrupt; each
// is retried like a corrupt extent, and never cached.
func (sr *StoreReader) Meta(ctx context.Context, part plan.PartitionMeta) (*colstore.FileMeta, error) {
	path := part.Path
	sr.mu.Lock()
	if f, ok := sr.metas[path]; ok && f.gen >= part.Gen {
		sr.lru.Touch(f)
		sr.mu.Unlock()
		return f.meta, nil
	}
	sr.mu.Unlock()

	fi, err := sr.Router.Stat(ctx, path)
	if err != nil {
		return nil, err
	}
	if fi.Size < int64(colstore.FooterTailLen) {
		return nil, fmt.Errorf("%w: exec: %s too small to be a partition file", types.ErrCorrupt, path)
	}
	tail, err := sr.Router.ReadRange(ctx, path, fi.Size-int64(colstore.FooterTailLen), int64(colstore.FooterTailLen))
	if err != nil {
		return nil, err
	}
	flen, crc, err := colstore.ParseFooterTail(tail)
	if err != nil {
		return nil, fmt.Errorf("exec: %s: %w", path, err)
	}
	fstart := fi.Size - int64(colstore.FooterTailLen) - int64(flen)
	if fstart < 0 {
		return nil, fmt.Errorf("%w: exec: %s footer larger than file", types.ErrCorrupt, path)
	}
	footer, err := sr.Router.ReadRange(ctx, path, fstart, int64(flen))
	if err != nil {
		return nil, err
	}
	meta, err := colstore.ParseFooter(footer, crc)
	if err != nil {
		return nil, fmt.Errorf("exec: %s: %w", path, err)
	}
	meta.BlockIDs = BlockIDs(part, len(meta.Blocks))
	sr.mu.Lock()
	if old := sr.metas[path]; old == nil || old.gen <= part.Gen {
		sr.drop(path)
		f := &cachedMeta{path: path, gen: part.Gen, meta: meta}
		sr.metas[path] = f
		sr.lru.PushFront(f, int64(flen))
		for sr.lru.Bytes() > sr.bound {
			sr.drop(sr.lru.Oldest().path)
		}
	}
	sr.mu.Unlock()
	return meta, nil
}

// Column implements PartitionReader via a single range read of the column's
// extent: a read-only view of the stored bytes, checked and decoded, never
// written or kept.
func (sr *StoreReader) Column(ctx context.Context, path string, meta *colstore.FileMeta, block, col int) (*colstore.Column, error) {
	if block < 0 || block >= len(meta.Blocks) {
		return nil, fmt.Errorf("exec: block %d out of range for %s", block, path)
	}
	bm := meta.Blocks[block]
	if col < 0 || col >= len(bm.ColExtents) {
		return nil, fmt.Errorf("exec: column %d out of range for %s block %d", col, path, block)
	}
	ext := bm.ColExtents[col]
	payload, err := sr.Router.ReadRange(ctx, path, ext.Off, ext.Len)
	if err != nil {
		return nil, err
	}
	if err := colstore.VerifyExtent(ext, payload); err != nil {
		return nil, fmt.Errorf("exec: read %s block %d col %d: %w", path, block, col, err)
	}
	c, err := colstore.DecodeColumn(meta.Schema.Fields[col].Type, payload, bm.Stats.NumRows)
	if err != nil {
		return nil, fmt.Errorf("exec: decode %s block %d col %d: %w", path, block, col, err)
	}
	return c, nil
}

// Release drops the cached footer of path, whatever its generation: memory
// only, for a partition the catalog retired or superseded.
func (sr *StoreReader) Release(path string) {
	sr.mu.Lock()
	sr.drop(path)
	sr.mu.Unlock()
}

// drop forgets the footer of path, if held. Caller holds sr.mu.
func (sr *StoreReader) drop(path string) {
	if f := sr.metas[path]; f != nil {
		sr.lru.Remove(f)
		delete(sr.metas, path)
	}
}
