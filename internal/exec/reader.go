package exec

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/storage"
)

// StoreReader reads partition metadata and column chunks through the common
// storage layer with range reads, caching one footer per path with the
// generation it was read at (footers are immutable per generation — the
// leaf's light-weight process holds them, paper §III-B). Footers are not
// small: each carries every block's stats, bloom filters included. Nothing
// bounds the map; only Release drops an entry, so a long ingest's footers
// add up to tens of MiB per deployment.
type StoreReader struct {
	Router *storage.Router

	mu    sync.Mutex
	metas map[string]cachedMeta
}

type cachedMeta struct {
	gen  uint64
	meta *colstore.FileMeta
}

// NewStoreReader wraps a storage router.
func NewStoreReader(r *storage.Router) *StoreReader {
	return &StoreReader{Router: r, metas: make(map[string]cachedMeta)}
}

// Meta implements PartitionReader: the footer is located via the fixed-size
// tail, then range-read, checked against the tail's CRC and parsed once per
// generation. A newer generation rereads it; an older one is served the
// newer footer and never replaces it. A footer that fails its checksum is
// colstore.ErrChecksum, retried like a corrupt extent, and never cached.
func (sr *StoreReader) Meta(ctx context.Context, part plan.PartitionMeta) (*colstore.FileMeta, error) {
	path := part.Path
	sr.mu.Lock()
	if f, ok := sr.metas[path]; ok && f.gen >= part.Gen {
		sr.mu.Unlock()
		return f.meta, nil
	}
	sr.mu.Unlock()

	fi, err := sr.Router.Stat(ctx, path)
	if err != nil {
		return nil, err
	}
	if fi.Size < int64(colstore.FooterTailLen) {
		return nil, fmt.Errorf("exec: %s too small to be a partition file", path)
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
		return nil, fmt.Errorf("exec: %s footer larger than file", path)
	}
	footer, err := sr.Router.ReadRange(ctx, path, fstart, int64(flen))
	if err != nil {
		return nil, err
	}
	meta, err := colstore.ParseFooter(footer, crc)
	if err != nil {
		return nil, fmt.Errorf("exec: %s: %w", path, err)
	}
	sr.mu.Lock()
	if sr.metas[path].gen <= part.Gen {
		sr.metas[path] = cachedMeta{part.Gen, meta}
	}
	sr.mu.Unlock()
	return meta, nil
}

// Column implements PartitionReader via a single range read of the column's
// extent.
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
	c, err := colstore.DecodeColumn(meta.Schema.Fields[col].Type, payload)
	if err != nil {
		return nil, fmt.Errorf("exec: decode %s block %d col %d: %w", path, block, col, err)
	}
	return c, nil
}

// Release drops the cached footer of path, whatever its generation: memory
// only, for a partition the catalog retired or superseded.
func (sr *StoreReader) Release(path string) {
	sr.mu.Lock()
	delete(sr.metas, path)
	sr.mu.Unlock()
}
