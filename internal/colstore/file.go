package colstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/bloom"
	"repro/internal/types"
)

// ErrChecksum reports bytes that do not match the CRC recorded for them — a
// column payload against its footer extent, or the footer against the file
// tail: a corrupt read from the storage tier. Callers treat it as a
// retryable read failure (a replica or retry may be clean).
var ErrChecksum = errors.New("colstore: checksum mismatch")

// VerifyExtent checks payload bytes against the extent's recorded CRC.
func VerifyExtent(e ColExtent, payload []byte) error { return verify(payload, e.CRC) }

func verify(b []byte, want uint32) error {
	if got := crc32.ChecksumIEEE(b); got != want {
		return fmt.Errorf("%w: got %08x want %08x", ErrChecksum, got, want)
	}
	return nil
}

// File format:
//
//	magic "FEISU4\n" (files in older formats are rejected, not read: a
//	FEISU3 footer's min/max may follow an order in which NaN equals every
//	number, and pruning by it under types.Compare's order drops rows)
//	block payloads, back to back (integer chunks: encoding.EncodeInt64s)
//	footer:
//	  schema (types.AppendSchema): uvarint nFields, per field: name, type
//	    byte, repeated byte
//	  uvarint nBlocks, per block: uvarint offset, size, numRows, then per
//	    column: min and max value (types.AppendValue), uvarint nullCount,
//	    uvarint extent offset, length and CRC, bloom flag byte, and when set
//	    a uvarint length and the bloom filter of BloomKeys (bloom.Marshal)
//	tail (FooterTailLen bytes):
//	  uint32 footerLen, uint32 footer CRC-32 (both little-endian)
//	  magic "FSU4"
//
// Every part of a file a reader decodes is checksummed: each column payload
// by its extent's CRC, the footer by the tail's. Readers decode through a
// types.Reader, so malformed bytes that pass a checksum still fail with an
// error wrapping types.ErrCorrupt, never a panic or an allocation the input
// cannot pay for.

const (
	fileMagic = "FEISU4\n"
	tailMagic = "FSU4"
)

// BlockMeta locates one block inside a partition file and carries its
// pruning statistics.
type BlockMeta struct {
	Ordinal int
	Offset  int64
	Size    int64
	Stats   BlockStats
	// ColExtents are the absolute per-column payload locations in the
	// file, enabling column-granular range reads.
	ColExtents []ColExtent
}

// FileMeta is the parsed footer of a partition file.
type FileMeta struct {
	Schema *types.Schema
	Blocks []BlockMeta
	// BlockIDs name the blocks for the caches above the store. The reader
	// that caches the footer sets them once, before it shares the footer;
	// they are nil on a footer nobody cached.
	BlockIDs []string
}

// Writer accumulates rows into blocks and produces a serialized partition
// file. The zero value is not usable; call NewWriter.
type Writer struct {
	schema       *types.Schema
	rowsPerBlock int
	cur          *Block
	buf          bytes.Buffer
	blocks       []BlockMeta
}

// NewWriter returns a writer producing blocks of rowsPerBlock records.
func NewWriter(schema *types.Schema, rowsPerBlock int) *Writer {
	if rowsPerBlock <= 0 {
		rowsPerBlock = 4096
	}
	w := &Writer{schema: schema, rowsPerBlock: rowsPerBlock, cur: NewBlock(schema)}
	w.buf.WriteString(fileMagic)
	return w
}

// Append adds one record of scalar values (see Block.AppendRow).
func (w *Writer) Append(row types.Row) error {
	if err := w.cur.AppendRow(row); err != nil {
		return err
	}
	return w.maybeFlush()
}

// AppendRecord adds one record with per-field value lists (repeated fields).
func (w *Writer) AppendRecord(rec [][]types.Value) error {
	if err := w.cur.AppendRecord(rec); err != nil {
		return err
	}
	return w.maybeFlush()
}

func (w *Writer) maybeFlush() error {
	if w.cur.NumRows >= w.rowsPerBlock {
		return w.flushBlock()
	}
	return nil
}

func (w *Writer) flushBlock() error {
	if w.cur.NumRows == 0 {
		return nil
	}
	payload, extents, err := w.cur.Marshal()
	if err != nil {
		return err
	}
	meta := BlockMeta{
		Ordinal: len(w.blocks),
		Offset:  int64(w.buf.Len()),
		Size:    int64(len(payload)),
		Stats:   w.cur.ComputeStats(),
	}
	meta.ColExtents = make([]ColExtent, len(extents))
	for i, e := range extents {
		meta.ColExtents[i] = ColExtent{
			Off: meta.Offset + e.Off,
			Len: e.Len,
			CRC: crc32.ChecksumIEEE(payload[e.Off : e.Off+e.Len]),
		}
	}
	w.buf.Write(payload)
	w.blocks = append(w.blocks, meta)
	w.cur = NewBlock(w.schema)
	return nil
}

// Finish flushes the last block, appends the footer and its tail, and
// returns the complete file contents. The writer must not be reused
// afterwards.
func (w *Writer) Finish() ([]byte, error) {
	if err := w.flushBlock(); err != nil {
		return nil, err
	}
	footer := appendFooter(nil, &FileMeta{Schema: w.schema, Blocks: w.blocks})
	w.buf.Write(footer)
	tail := binary.LittleEndian.AppendUint32(nil, uint32(len(footer)))
	tail = binary.LittleEndian.AppendUint32(tail, crc32.ChecksumIEEE(footer))
	w.buf.Write(append(tail, tailMagic...))
	return w.buf.Bytes(), nil
}

func appendFooter(f []byte, m *FileMeta) []byte {
	f = types.AppendSchema(f, m.Schema)
	f = binary.AppendUvarint(f, uint64(len(m.Blocks)))
	for _, bm := range m.Blocks {
		f = binary.AppendUvarint(f, uint64(bm.Offset))
		f = binary.AppendUvarint(f, uint64(bm.Size))
		f = binary.AppendUvarint(f, uint64(bm.Stats.NumRows))
		for ci, cs := range bm.Stats.Columns {
			f = types.AppendValue(types.AppendValue(f, cs.Min), cs.Max)
			f = binary.AppendUvarint(f, uint64(cs.NullCount))
			f = binary.AppendUvarint(f, uint64(bm.ColExtents[ci].Off))
			f = binary.AppendUvarint(f, uint64(bm.ColExtents[ci].Len))
			f = binary.AppendUvarint(f, uint64(bm.ColExtents[ci].CRC))
			f = types.AppendBool(f, cs.Bloom != nil)
			if cs.Bloom != nil {
				bf := cs.Bloom.Marshal()
				f = append(binary.AppendUvarint(f, uint64(len(bf))), bf...)
			}
		}
	}
	return f
}

// ReadMeta parses the footer of a partition file.
func ReadMeta(data []byte) (*FileMeta, error) {
	body := len(data) - FooterTailLen
	if body < len(fileMagic) || string(data[:len(fileMagic)]) != fileMagic {
		return nil, fmt.Errorf("%w: colstore: not a partition file", types.ErrCorrupt)
	}
	n, crc, err := ParseFooterTail(data[body:])
	if err != nil {
		return nil, err
	}
	if n > body-len(fileMagic) {
		return nil, fmt.Errorf("%w: colstore: footer length %d exceeds the file", types.ErrCorrupt, n)
	}
	meta, err := ParseFooter(data[body-n:body], crc)
	if err != nil {
		return nil, err
	}
	for i, bm := range meta.Blocks {
		if bm.Offset < int64(len(fileMagic)) || bm.Size < 0 || bm.Offset+bm.Size > int64(body-n) {
			return nil, fmt.Errorf("%w: colstore: block %d out of bounds", types.ErrCorrupt, i)
		}
	}
	return meta, nil
}

// FooterTailLen is the fixed number of trailing bytes holding the footer
// length, its CRC and the tail magic; remote readers fetch it first, then the
// footer.
const FooterTailLen = 4 + 4 + len(tailMagic)

// ParseFooterTail validates the trailing FooterTailLen bytes and returns the
// footer's length and CRC.
func ParseFooterTail(tail []byte) (n int, crc uint32, err error) {
	if len(tail) != FooterTailLen || string(tail[8:]) != tailMagic {
		return 0, 0, fmt.Errorf("%w: colstore: bad footer tail", types.ErrCorrupt)
	}
	return int(binary.LittleEndian.Uint32(tail)), binary.LittleEndian.Uint32(tail[4:]), nil
}

// ParseFooter checks the footer bytes alone (no surrounding file needed), as
// fetched by a range read guided by ParseFooterTail, against the tail's CRC
// and parses them.
func ParseFooter(f []byte, crc uint32) (*FileMeta, error) {
	if err := verify(f, crc); err != nil {
		return nil, fmt.Errorf("footer: %w", err)
	}
	return types.ReadAll(f, readFooter)
}

func readFooter(r *types.Reader) *FileMeta {
	schema := r.Schema()
	if schema == nil {
		return nil
	}
	ncols := schema.Len()
	// A block is at least three bytes and each of its columns ten.
	meta := &FileMeta{Schema: schema, Blocks: make([]BlockMeta, r.Len(3+10*ncols))}
	for i := range meta.Blocks {
		bm := &meta.Blocks[i]
		bm.Ordinal, bm.Offset, bm.Size = i, int64(r.Uvarint()), int64(r.Uvarint())
		bm.Stats = BlockStats{NumRows: int(r.Uvarint()), Columns: make([]Stats, ncols)}
		bm.ColExtents = make([]ColExtent, ncols)
		for c := range bm.Stats.Columns {
			cs := &bm.Stats.Columns[c]
			cs.Min, cs.Max, cs.NullCount = r.Value(), r.Value(), int(r.Uvarint())
			e := &bm.ColExtents[c]
			e.Off, e.Len = int64(r.Uvarint()), int64(r.Uvarint())
			crc := r.Uvarint()
			if crc > math.MaxUint32 {
				r.Fail("extent checksum exceeds 32 bits")
			}
			e.CRC = uint32(crc)
			if r.Bool() {
				part := r.Sub(int(r.Uvarint()))
				cs.Bloom = bloom.Read(&part)
				r.Close(&part)
			}
		}
	}
	return meta
}

// ReadBlock decodes block ordinal from the file, decoding only wantCols when
// non-nil (column pruning).
func ReadBlock(data []byte, meta *FileMeta, ordinal int, wantCols []int) (*Block, error) {
	if ordinal < 0 || ordinal >= len(meta.Blocks) {
		return nil, fmt.Errorf("colstore: block ordinal %d out of range", ordinal)
	}
	bm := meta.Blocks[ordinal]
	if bm.Offset+bm.Size > int64(len(data)) {
		return nil, fmt.Errorf("%w: colstore: block %d extends past file", types.ErrCorrupt, ordinal)
	}
	return UnmarshalBlock(meta.Schema, data[bm.Offset:bm.Offset+bm.Size], wantCols)
}
