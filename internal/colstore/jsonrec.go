package colstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/types"
)

// JSONDecoder flattens nested JSON records into the per-field value lists
// Block.AppendRecord takes — the paper's "nested data format such as json
// ... flatten[ed] into columns" (§III-A). Field names are dotted paths into
// the JSON object ("click.pos"). An array anywhere on a path fans out, one
// value per element; null yields no value. A scalar field takes NULL when
// its path holds no value and fails when it holds more than one; a repeated
// field takes any number. A duplicate key keeps its last occurrence, as
// encoding/json does.
//
// Decode walks each record once over a path table compiled from the schema:
// keys outside the schema are skipped undecoded, numbers parse from their
// token bytes (an integer literal into a BIGINT column exactly), and the
// record's strings share one allocation. A JSONDecoder is not safe for
// concurrent use.
type JSONDecoder struct {
	fields []types.Field
	root   *pathNode
	rec    [][]types.Value // per field, reused across records
	strs   []byte          // the record's string bytes
	spans  [][2]int        // strs range of each string value, by its I
	errs   []error         // by the I of a badValue
	key    []byte
	data   []byte
	pos    int
	visits uint64
}

// pathNode is one segment of the schema's dotted field names.
type pathNode struct {
	field    int // ordinal of the field ending here, or -1
	children map[string]*pathNode
	under    []int // ordinals of the fields at or below this node
	// marks holds, per under, the list length when the key first occurred
	// in the object visit seenIn; a duplicate truncates back to it.
	marks  []int
	seenIn uint64
}

// badValue marks a value the record cannot store; its I indexes errs. Like
// any value, a later duplicate key drops it.
const badValue types.Type = 0xff

// NewJSONDecoder compiles the schema's field paths into a decoder.
func NewJSONDecoder(schema *types.Schema) *JSONDecoder {
	d := &JSONDecoder{fields: schema.Fields, root: &pathNode{field: -1}, rec: make([][]types.Value, schema.Len())}
	for i, f := range schema.Fields {
		n := d.root
		n.under = append(n.under, i)
		for _, seg := range strings.Split(f.Name, ".") {
			c := n.children[seg]
			if c == nil {
				c = &pathNode{field: -1}
				if n.children == nil {
					n.children = make(map[string]*pathNode)
				}
				n.children[seg] = c
			}
			n = c
			n.under = append(n.under, i)
			n.marks = append(n.marks, 0)
		}
		n.field = i
	}
	return d
}

// Decode flattens one JSON record. The returned lists are the decoder's
// own: they stay valid until the next call.
func (d *JSONDecoder) Decode(data []byte) ([][]types.Value, error) {
	if !json.Valid(data) {
		var raw json.RawMessage
		return nil, fmt.Errorf("colstore: bad json record: %w", json.Unmarshal(data, &raw))
	}
	for i := range d.rec {
		d.rec[i] = d.rec[i][:0]
	}
	d.strs, d.spans, d.errs = d.strs[:0], d.spans[:0], d.errs[:0]
	d.data, d.pos = data, 0
	d.value(d.root)
	d.data = nil
	s := string(d.strs)
	for i, f := range d.fields {
		vals := d.rec[i]
		for j, v := range vals {
			switch v.T {
			case badValue:
				return nil, d.errs[v.I]
			case types.String:
				sp := d.spans[v.I]
				vals[j] = types.NewString(s[sp[0]:sp[1]])
			}
		}
		if !f.Repeated && len(vals) > 1 {
			return nil, fmt.Errorf("colstore: field %q is scalar but json has %d values", f.Name, len(vals))
		} else if !f.Repeated && len(vals) == 0 {
			d.rec[i] = append(vals, types.NullValue())
		}
	}
	return d.rec, nil
}

// value consumes the JSON value at pos for the fields at or below n.
func (d *JSONDecoder) value(n *pathNode) {
	switch d.skipSpace() {
	case '{':
		if n.field >= 0 {
			d.fail(n.field, "json object into %s column", d.fields[n.field].Type)
			d.skip()
			return
		}
		d.object(n)
	case '[':
		d.pos++
		for d.skipSpace() != ']' {
			d.value(n)
			if d.skipSpace() == ',' {
				d.pos++
			}
		}
		d.pos++
	case 'n':
		d.pos += len("null")
	default:
		tok := d.scalar()
		if len(n.children) > 0 {
			d.fail(n.under[0], "json scalar where an object is expected")
		}
		if n.field >= 0 {
			d.leaf(n.field, tok)
		}
	}
}

// object consumes the object at pos, skipping keys outside the schema.
func (d *JSONDecoder) object(n *pathNode) {
	d.visits++
	visit := d.visits
	d.pos++
	for d.skipSpace() != '}' {
		d.key = appendUnquoted(d.key[:0], d.scalar())
		d.skipSpace()
		d.pos++ // ':'
		c := n.children[string(d.key)]
		switch {
		case c == nil:
			d.skip()
		case c.seenIn == visit:
			for k, f := range c.under {
				d.rec[f] = d.rec[f][:c.marks[k]]
			}
			d.value(c)
		default:
			c.seenIn = visit
			for k, f := range c.under {
				c.marks[k] = len(d.rec[f])
			}
			d.value(c)
		}
		if d.skipSpace() == ',' {
			d.pos++
		}
	}
	d.pos++
}

// leaf stores a string, number or bool token as a value of field f.
func (d *JSONDecoder) leaf(f int, tok []byte) {
	t := d.fields[f].Type
	var v types.Value
	switch c := tok[0]; {
	case c == '"' && t == types.String:
		start := len(d.strs)
		d.strs = appendUnquoted(d.strs, tok)
		v = types.Value{T: types.String, I: int64(len(d.spans))}
		d.spans = append(d.spans, [2]int{start, len(d.strs)})
	case (c == 't' || c == 'f') && t == types.Bool:
		v = types.NewBool(c == 't')
	case c == '"' || c == 't' || c == 'f' || !t.Numeric():
		d.fail(f, "json %.32s into %s column", tok, t)
		return
	case t == types.Int64 && bytes.IndexAny(tok, ".eE") < 0:
		i, err := strconv.ParseInt(string(tok), 10, 64)
		if err != nil {
			d.fail(f, "json number %s out of %s range", tok, t)
			return
		}
		v = types.NewInt(i)
	default:
		x, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			d.fail(f, "json number %s out of range", tok)
			return
		}
		v = types.NewFloat(x)
		if t == types.Int64 {
			v = types.NewInt(int64(x))
		}
	}
	d.rec[f] = append(d.rec[f], v)
}

// fail records that field f cannot store what the record holds for it.
func (d *JSONDecoder) fail(f int, format string, args ...any) {
	err := fmt.Errorf("colstore: field %q: %s", d.fields[f].Name, fmt.Sprintf(format, args...))
	d.rec[f] = append(d.rec[f], types.Value{T: badValue, I: int64(len(d.errs))})
	d.errs = append(d.errs, err)
}

// skip consumes the JSON value at pos without decoding it.
func (d *JSONDecoder) skip() {
	for depth := 0; ; {
		switch d.skipSpace() {
		case '{', '[':
			depth++
			d.pos++
		case '}', ']':
			depth--
			d.pos++
		case ',', ':':
			d.pos++
		default:
			d.scalar()
		}
		if depth == 0 {
			return
		}
	}
}

// skipSpace advances past whitespace and returns the byte at pos.
func (d *JSONDecoder) skipSpace() byte {
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// scalar consumes the string, number or literal token at pos.
func (d *JSONDecoder) scalar() []byte {
	start := d.pos
	if d.data[d.pos] == '"' {
		for d.pos++; d.data[d.pos] != '"'; d.pos++ {
			if d.data[d.pos] == '\\' {
				d.pos++
			}
		}
		d.pos++
		return d.data[start:d.pos]
	}
	for ; d.pos < len(d.data); d.pos++ {
		if c := d.data[d.pos]; c <= ' ' || c == ',' || c == ']' || c == '}' {
			break
		}
	}
	return d.data[start:d.pos]
}

// appendUnquoted appends the value of a valid JSON string token. Only a
// token with escapes or invalid UTF-8 goes through encoding/json.
func appendUnquoted(dst, tok []byte) []byte {
	raw := tok[1 : len(tok)-1]
	if bytes.IndexByte(raw, '\\') < 0 && utf8.Valid(raw) {
		return append(dst, raw...)
	}
	var s string
	_ = json.Unmarshal(tok, &s) // the token is valid: it cannot fail
	return append(dst, s...)
}
