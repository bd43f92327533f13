package plan

import (
	"math"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/types"
)

// TestAtomKeyGolden pins the rendered key of every literal type to the bytes
// the fmt.Sprintf("%s %s %s") rendering produced: SmartIndex pins,
// history-driven PinAtom and EXPLAIN all match on it.
func TestAtomKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		atom      Atom
		key, text string
	}{
		{Atom{Table: "t", Col: "q", Op: sqlparser.OpEq, Val: types.NewString(`it's "x" y`)}, `q = "it's \"x\" y"`, ""},
		{Atom{Col: "dwell", Op: sqlparser.OpGt, Val: types.NewFloat(-1.5)}, "dwell > -1.5", ""},
		{Atom{Col: "score", Op: sqlparser.OpLe, Val: types.NewFloat(0.4375)}, "score <= 0.4375", ""},
		{Atom{Col: "n", Op: sqlparser.OpGe, Val: types.NewInt(2)}, "n >= 2", ""},
		{Atom{Col: "n", Op: sqlparser.OpGe, Val: types.NewFloat(2.0)}, "n >= 2", ""}, // 2 and 2.0 share an entry
		{Atom{Col: "n", Op: sqlparser.OpLt, Val: types.NewInt(-7)}, "n < -7", ""},
		{Atom{Col: "big", Op: sqlparser.OpNe, Val: types.NewFloat(1e21)}, "big != 1e+21", ""},
		{Atom{Col: "tiny", Op: sqlparser.OpLt, Val: types.NewFloat(1e-7)}, "tiny < 1e-07", ""},
		{Atom{Col: "inf", Op: sqlparser.OpLt, Val: types.NewFloat(math.Inf(1))}, "inf < +Inf", ""},
		{Atom{Col: "spam", Op: sqlparser.OpEq, Val: types.NewBool(true)}, "spam = true", ""},
		{Atom{Col: "spam", Op: sqlparser.OpNe, Val: types.NewBool(false)}, "spam != false", ""},
		{Atom{Col: "x", Op: sqlparser.OpEq, Val: types.NullValue()}, "x = NULL", ""},
		{Atom{Col: "url", Op: sqlparser.OpContains, Val: types.NewString("a b\tc")}, `url CONTAINS "a b\tc"`, ""},
		// A negated atom keeps its positive form's key.
		{Atom{Col: "url", Op: sqlparser.OpContains, Val: types.NewString("spam"), Negated: true}, `url CONTAINS "spam"`, `NOT(url CONTAINS "spam")`},
		{Atom{Col: "ü", Op: sqlparser.OpEq, Val: types.NewString("é\x00")}, `ü = "é\x00"`, ""},
	} {
		if tc.text == "" {
			tc.text = tc.key
		}
		if got := tc.atom.Key(); got != tc.key {
			t.Errorf("Key() = %q, want %q", got, tc.key)
		}
		if got := string(tc.atom.AppendKey([]byte("b#0|"))); got != "b#0|"+tc.key {
			t.Errorf("AppendKey = %q, want %q after the prefix", got, tc.key)
		}
		if got := tc.atom.String(); got != tc.text {
			t.Errorf("String() = %q, want %q", got, tc.text)
		}
	}
	long := Atom{Col: "c", Op: sqlparser.OpEq, Val: types.NewString(string(make([]byte, 200)))}
	if got, want := long.Key(), "c = "+long.Val.String(); got != want {
		t.Errorf("a key longer than the stack buffer: %q, want %q", got, want)
	}
}
