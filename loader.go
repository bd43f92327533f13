package feisu

import (
	"context"
	"fmt"

	"repro/internal/btree"
	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
)

// newBTreeIndex adapts the baseline to exec.IndexSource.
func newBTreeIndex(model *sim.CostModel) exec.IndexSource {
	idx := btree.NewIndex()
	idx.Model = model
	return idx
}

// Loader streams rows into a new table, rotating partition files as it
// goes, and registers the table in the master catalog on Close. The path
// prefix selects the storage system: "/hdfs/..." lands on the replicated
// DFS, "/ffs/..." on the cold archive, anything else on the local store.
type Loader struct {
	sys          *System
	name         string
	schema       *Schema
	pathPrefix   string
	rowsPerPart  int
	rowsPerBlock int

	dec    *colstore.JSONDecoder
	writer *colstore.Writer
	inPart int
	meta   *plan.TableMeta
	closed bool
}

// NewLoader starts loading a table. rows are split into partitions of
// 64Ki records by default; SetPartitionRows overrides before the first
// Append.
func (s *System) NewLoader(name string, schema *Schema, pathPrefix string) (*Loader, error) {
	if name == "" || schema == nil || schema.Len() == 0 {
		return nil, fmt.Errorf("feisu: loader needs a table name and schema")
	}
	return &Loader{
		sys:          s,
		name:         name,
		schema:       schema,
		pathPrefix:   pathPrefix,
		rowsPerPart:  64 << 10,
		rowsPerBlock: 4096,
		meta:         &plan.TableMeta{Name: name, Schema: schema},
		dec:          colstore.NewJSONDecoder(schema),
	}, nil
}

// SetPartitionRows sets the records per partition file.
func (l *Loader) SetPartitionRows(n int) {
	if n > 0 {
		l.rowsPerPart = n
	}
}

// SetBlockRows sets the records per block inside each partition.
func (l *Loader) SetBlockRows(n int) {
	if n > 0 {
		l.rowsPerBlock = n
	}
}

// Append adds one record of scalar values.
func (l *Loader) Append(row Row) error {
	if err := l.ensureWriter(); err != nil {
		return err
	}
	if err := l.writer.Append(row); err != nil {
		return err
	}
	return l.maybeRotate()
}

// AppendRecord adds one record with per-field value lists (repeated
// fields).
func (l *Loader) AppendRecord(rec [][]Value) error {
	if err := l.ensureWriter(); err != nil {
		return err
	}
	if err := l.writer.AppendRecord(rec); err != nil {
		return err
	}
	return l.maybeRotate()
}

// AppendJSON flattens one JSON document into the schema's columns (paper
// §III-A: nested json is flattened into columns).
func (l *Loader) AppendJSON(doc []byte) error {
	rec, err := l.dec.Decode(doc)
	if err != nil {
		return err
	}
	return l.AppendRecord(rec)
}

func (l *Loader) ensureWriter() error {
	if l.closed {
		return fmt.Errorf("feisu: loader for %q already closed", l.name)
	}
	if l.writer == nil {
		l.writer = colstore.NewWriter(l.schema, l.rowsPerBlock)
		l.inPart = 0
	}
	return nil
}

func (l *Loader) maybeRotate() error {
	l.inPart++
	if l.inPart >= l.rowsPerPart {
		return l.flushPartition()
	}
	return nil
}

func (l *Loader) flushPartition() error {
	if l.writer == nil || l.inPart == 0 {
		return nil
	}
	data, err := l.writer.Finish()
	if err != nil {
		return err
	}
	path := fmt.Sprintf("%s/part-%05d", l.pathPrefix, len(l.meta.Partitions))
	if err := l.sys.router.WriteFile(context.Background(), path, data); err != nil {
		return err
	}
	// Reloading a table at the same prefix rewrites its partition files; Gen
	// 0 registers each at a fresh generation, so nothing cached from the
	// superseded bytes answers a later query.
	l.meta.Partitions = append(l.meta.Partitions, plan.PartitionMeta{
		Path:  path,
		Rows:  int64(l.inPart),
		Bytes: int64(len(data)),
	})
	l.writer = nil
	l.inPart = 0
	return nil
}

// Close flushes the last partition and registers the table.
func (l *Loader) Close() error {
	if l.closed {
		return nil
	}
	if err := l.flushPartition(); err != nil {
		return err
	}
	l.closed = true
	return l.sys.RegisterTable(context.Background(), l.meta)
}

// Meta returns the catalog entry being built (complete after Close).
func (l *Loader) Meta() *plan.TableMeta { return l.meta }
