package colstore

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/bloom"
	"repro/internal/types"
)

// TestDecodedNeverAliasesPayload: a range read hands the decoders a view of
// the store's own bytes, so nothing they return may point into their input.
// Each decode below runs over a copy of its payload, the copy is then
// overwritten, and the result must still equal a fresh decode.
func TestDecodedNeverAliasesPayload(t *testing.T) {
	data, meta := allTypesFile(t)
	// decodeThenClobber decodes a private copy of payload, overwrites the
	// copy and returns the result beside a decode of untouched bytes.
	decodeThenClobber := func(payload []byte, decode func([]byte) (any, error)) (got, want any) {
		t.Helper()
		scratch := bytes.Clone(payload)
		got, err := decode(scratch)
		if err != nil {
			t.Fatal(err)
		}
		for i := range scratch {
			scratch[i] = 0xA5
		}
		want, err = decode(bytes.Clone(payload))
		if err != nil {
			t.Fatal(err)
		}
		return got, want
	}

	// Every column of every block: int, float, bool, plain and dictionary
	// strings, NULLs, and repeated ints and strings.
	for _, bm := range meta.Blocks {
		for c, ext := range bm.ColExtents {
			field := meta.Schema.Fields[c]
			got, want := decodeThenClobber(data[ext.Off:ext.Off+ext.Len], func(p []byte) (any, error) {
				return DecodeColumn(field.Type, p, bm.Stats.NumRows)
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("block %d column %s changed with its payload:\n got %+v\nwant %+v", bm.Ordinal, field.Name, got, want)
			}
		}
	}

	n, crc, err := ParseFooterTail(data[len(data)-FooterTailLen:])
	if err != nil {
		t.Fatal(err)
	}
	footer := data[len(data)-FooterTailLen-n : len(data)-FooterTailLen]
	got, want := decodeThenClobber(footer, func(p []byte) (any, error) { return ParseFooter(p, crc) })
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the parsed footer changed with its bytes")
	}

	f := bloom.New(64, 0.01)
	for _, k := range []string{"web", "maps", "news"} {
		f.Add([]byte(k))
	}
	got, want = decodeThenClobber(f.Marshal(), func(p []byte) (any, error) { return types.ReadAll(p, bloom.Read) })
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a bloom filter changed with its bytes")
	}

	b := bitmap.New(200)
	for i := 0; i < 200; i += 3 {
		b.Set(i)
	}
	got, want = decodeThenClobber(b.Marshal(), func(p []byte) (any, error) { return types.ReadAll(p, bitmap.Read) })
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a bitmap changed with its bytes")
	}
}
