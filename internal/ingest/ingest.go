// Package ingest implements the paper's leaf-side conversion process
// (§III-B): "each storage node in a specific storage system is deployed a
// light-weight process, which monitors the storage for newly generated
// data (e.g., log data) and converts the data into Feisu in columnar
// format when new data arrive."
//
// A Converter scans a source prefix for raw JSON-lines files, flattens
// each record into the table schema (nested objects become dotted columns,
// arrays become repeated fields), writes a columnar partition next to the
// destination prefix, and reports the new partition metadata so the master
// can extend the catalog. A Watcher polls the converter on an interval.
package ingest

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// Converter turns raw JSON-lines files into Feisu partitions.
type Converter struct {
	Router *storage.Router
	Schema *types.Schema
	// SrcPrefix is watched for raw files (e.g. "/var/log/search/").
	SrcPrefix string
	// DstPrefix receives partition files (e.g. "/hdfs/search-logs").
	DstPrefix string
	// RowsPerBlock sizes row groups; 0 uses the colstore default.
	RowsPerBlock int
	// Strict fails the whole file on the first malformed record; by
	// default malformed lines are counted and skipped (production logs
	// are dirty).
	Strict bool

	mu   sync.Mutex
	done map[string]bool
	seq  int

	// SkippedRecords counts malformed lines dropped in lenient mode.
	SkippedRecords int64
}

// ScanOnce converts every not-yet-processed source file and returns the
// new partitions, sorted by source path for determinism.
func (c *Converter) ScanOnce(ctx context.Context) ([]plan.PartitionMeta, error) {
	src, inPrefix := c.Router.Resolve(c.SrcPrefix)
	if src == nil {
		return nil, fmt.Errorf("ingest: no store for %q", c.SrcPrefix)
	}
	files, err := src.List(ctx, inPrefix)
	if err != nil {
		return nil, fmt.Errorf("ingest: list %q: %w", c.SrcPrefix, err)
	}
	sort.Strings(files)

	var out []plan.PartitionMeta
	for _, f := range files {
		full := c.fullSrcPath(f)
		c.mu.Lock()
		if c.done == nil {
			c.done = make(map[string]bool)
		}
		seen := c.done[full]
		c.mu.Unlock()
		if seen {
			continue
		}
		part, err := c.convert(ctx, full)
		if err != nil {
			return out, fmt.Errorf("ingest: convert %s: %w", full, err)
		}
		c.mu.Lock()
		c.done[full] = true
		c.mu.Unlock()
		if part != nil {
			out = append(out, *part)
		}
	}
	return out, nil
}

// fullSrcPath rebuilds the routed path for a listed in-store path.
func (c *Converter) fullSrcPath(inStore string) string {
	store, _ := c.Router.Resolve(c.SrcPrefix)
	if store.Scheme() == "" {
		return inStore
	}
	return "/" + store.Scheme() + inStore
}

// convert turns one JSON-lines file into a partition; empty files yield
// nil without error.
func (c *Converter) convert(ctx context.Context, srcPath string) (*plan.PartitionMeta, error) {
	raw, err := c.Router.ReadFile(ctx, srcPath)
	if err != nil {
		return nil, err
	}
	w := colstore.NewWriter(c.Schema, c.RowsPerBlock)
	dec := colstore.NewJSONDecoder(c.Schema)
	rows := int64(0)
	for lineNo := 1; len(raw) > 0; lineNo++ {
		var line []byte
		line, raw, _ = bytes.Cut(raw, []byte{'\n'})
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		rec, err := dec.Decode(line)
		if err == nil {
			err = w.AppendRecord(rec)
		}
		if err != nil {
			if c.Strict {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			c.mu.Lock()
			c.SkippedRecords++
			c.mu.Unlock()
			continue
		}
		rows++
	}
	if rows == 0 {
		return nil, nil
	}
	data, err := w.Finish()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.seq++
	seq := c.seq
	c.mu.Unlock()
	dst := fmt.Sprintf("%s/conv-%05d", strings.TrimRight(c.DstPrefix, "/"), seq)
	if err := c.Router.WriteFile(ctx, dst, data); err != nil {
		return nil, err
	}
	// Gen 0: new bytes. A restarted converter that reuses a sequence number
	// overwrites dst, and registering it at a fresh generation is what keeps
	// readers off the superseded file's cached state.
	return &plan.PartitionMeta{Path: dst, Rows: rows, Bytes: int64(len(data))}, nil
}

// Watcher polls a Converter and hands new partitions to a callback (the
// master's catalog update).
type Watcher struct {
	Conv *Converter
	// OnNew receives each batch of freshly converted partitions.
	OnNew func(ctx context.Context, parts []plan.PartitionMeta) error
	// OnError observes scan failures (optional); the watcher keeps going.
	OnError func(error)

	stop chan struct{}
	wg   sync.WaitGroup
}

// Start begins polling at the interval until Stop.
func (w *Watcher) Start(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	w.stop = make(chan struct{})
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			w.tick()
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
}

func (w *Watcher) tick() {
	ctx := context.Background()
	parts, err := w.Conv.ScanOnce(ctx)
	if err != nil {
		if w.OnError != nil {
			w.OnError(err)
		}
		return
	}
	if len(parts) > 0 && w.OnNew != nil {
		if err := w.OnNew(ctx, parts); err != nil && w.OnError != nil {
			w.OnError(err)
		}
	}
}

// Stop ends polling and waits for the loop to exit.
func (w *Watcher) Stop() {
	if w.stop != nil {
		close(w.stop)
		w.wg.Wait()
		w.stop = nil
	}
}
