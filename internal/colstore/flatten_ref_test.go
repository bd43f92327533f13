package colstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/types"
)

// flattenJSON is the reference flattener FuzzFlattenJSON holds JSONDecoder
// to: it unmarshals the whole record into map[string]any and walks one
// field path at a time. Numbers stay json.Number until a field converts
// them, so an integer literal reaches a BIGINT column exactly, and a number
// under a key outside the schema is checked for syntax only.
func flattenJSON(schema *types.Schema, data []byte) ([][]types.Value, error) {
	if !json.Valid(data) {
		return nil, fmt.Errorf("bad json record")
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var root any
	if err := dec.Decode(&root); err != nil {
		return nil, err
	}
	rec := make([][]types.Value, schema.Len())
	for i, f := range schema.Fields {
		vals, err := extractPath(root, strings.Split(f.Name, "."), f)
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", f.Name, err)
		}
		if !f.Repeated {
			if len(vals) == 0 {
				vals = []types.Value{types.NullValue()}
			} else if len(vals) > 1 {
				return nil, fmt.Errorf("field %q is scalar but json has %d values", f.Name, len(vals))
			}
		}
		rec[i] = vals
	}
	return rec, nil
}

// extractPath walks the JSON value along the path, fanning out over arrays.
func extractPath(v any, path []string, f types.Field) ([]types.Value, error) {
	if v == nil {
		return nil, nil
	}
	if arr, ok := v.([]any); ok {
		var out []types.Value
		for _, elem := range arr {
			vals, err := extractPath(elem, path, f)
			if err != nil {
				return nil, err
			}
			out = append(out, vals...)
		}
		return out, nil
	}
	if len(path) == 0 {
		val, err := convertScalar(v, f.Type)
		if err != nil {
			return nil, err
		}
		return []types.Value{val}, nil
	}
	obj, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("expected object at %q, got %T", path[0], v)
	}
	child, ok := obj[path[0]]
	if !ok {
		return nil, nil
	}
	return extractPath(child, path[1:], f)
}

func convertScalar(v any, t types.Type) (types.Value, error) {
	switch x := v.(type) {
	case json.Number:
		if t == types.Int64 && !strings.ContainsAny(string(x), ".eE") {
			i, err := strconv.ParseInt(string(x), 10, 64)
			return types.NewInt(i), err
		}
		f, err := strconv.ParseFloat(string(x), 64)
		switch {
		case err != nil:
			return types.Value{}, err
		case t == types.Int64:
			return types.NewInt(int64(f)), nil
		case t == types.Float64:
			return types.NewFloat(f), nil
		}
		return types.Value{}, fmt.Errorf("json number into %s column", t)
	case bool:
		if t != types.Bool {
			return types.Value{}, fmt.Errorf("json bool into %s column", t)
		}
		return types.NewBool(x), nil
	case string:
		if t != types.String {
			return types.Value{}, fmt.Errorf("json string into %s column", t)
		}
		return types.NewString(x), nil
	default:
		return types.Value{}, fmt.Errorf("json %T into %s column", v, t)
	}
}
