// Package plan implements Feisu's query planner: name/type binding over the
// catalog, predicate normalization to conjunctive form (the representation
// SmartIndex keys on, paper §IV-A), predicate pushdown and column pruning,
// and the dissection of a query plan into per-partition sub-plans that the
// master dispatches to stem and leaf servers (paper §III-B).
package plan

import (
	"fmt"
	"sort"

	"repro/internal/types"
)

// PartitionMeta describes one partition file of a table. Partitions are the
// unit of task dissection and of locality-aware scheduling.
type PartitionMeta struct {
	// Path is the full prefixed storage path ("/hdfs/...", "/ffs/...",
	// or a local path).
	Path string
	// Rows and Bytes are catalog-recorded sizes used by the cost-based
	// scheduler; zero means unknown.
	Rows  int64
	Bytes int64
	// Gen is the generation of the bytes at Path, stamped by the master's
	// catalog and carried in every task; each cache built from the file
	// (footers, SSD chunks, SmartIndex) keys by it. 0 means new bytes: the
	// catalog stamps a fresh generation, so whoever rewrites a file in place
	// registers it with Gen 0. A registered partition keeps its Gen.
	Gen uint64
}

// TableMeta is the catalog entry for a table.
type TableMeta struct {
	Name       string
	Schema     *types.Schema
	Partitions []PartitionMeta
	// Version is stamped by the catalog on every registration of the table;
	// a cached result is served only at the versions its plan was bound at.
	Version uint64
}

// Superseded returns the partitions of t whose (Path, Gen) next does not
// list: retired, or rewritten under a newer generation. A nil t lists none.
func (t *TableMeta) Superseded(next *TableMeta) []PartitionMeta {
	if t == nil {
		return nil
	}
	type file struct {
		path string
		gen  uint64
	}
	kept := make(map[file]bool, len(next.Partitions))
	for _, p := range next.Partitions {
		kept[file{p.Path, p.Gen}] = true
	}
	var out []PartitionMeta
	for _, p := range t.Partitions {
		if !kept[file{p.Path, p.Gen}] {
			out = append(out, p)
		}
	}
	return out
}

// Rows returns the catalog row count across partitions.
func (t *TableMeta) Rows() int64 {
	var n int64
	for _, p := range t.Partitions {
		n += p.Rows
	}
	return n
}

// Bytes returns the catalog byte count across partitions.
func (t *TableMeta) Bytes() int64 {
	var n int64
	for _, p := range t.Partitions {
		n += p.Bytes
	}
	return n
}

// Catalog resolves table names. The master's job manager owns the real
// implementation; tests use MapCatalog.
type Catalog interface {
	Lookup(name string) (*TableMeta, error)
}

// MapCatalog is an in-memory Catalog.
type MapCatalog map[string]*TableMeta

// Lookup implements Catalog.
func (m MapCatalog) Lookup(name string) (*TableMeta, error) {
	if t, ok := m[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("plan: unknown table %q", name)
}

// Tables returns the catalog's table names, sorted.
func (m MapCatalog) Tables() []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
