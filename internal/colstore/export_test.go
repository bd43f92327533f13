package colstore

import (
	"encoding/binary"
	"hash/crc32"
)

// WithFooter returns a copy of the partition file data whose footer says what
// edit makes it say, under a fresh footer CRC: a file every checksum passes.
func WithFooter(data []byte, edit func(*FileMeta)) ([]byte, error) {
	meta, err := ReadMeta(data)
	if err != nil {
		return nil, err
	}
	n, _, err := ParseFooterTail(data[len(data)-FooterTailLen:])
	if err != nil {
		return nil, err
	}
	edit(meta)
	out := append([]byte(nil), data[:len(data)-FooterTailLen-n]...)
	footer := appendFooter(nil, meta)
	out = append(out, footer...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(footer)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(footer))
	return append(out, tailMagic...), nil
}
