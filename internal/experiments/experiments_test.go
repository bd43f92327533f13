package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// All experiment tests run at SmallScale to stay fast while asserting the
// paper's qualitative shapes.

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestReportString(t *testing.T) {
	r := &Report{ID: "x", Title: "T", Headers: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	s := r.String()
	for _, want := range []string{"== x: T ==", "a", "bb", "1", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestTable1(t *testing.T) {
	rep, err := Table1(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Field counts preserved from the paper.
	if rep.Rows[0][3] != "200" || rep.Rows[2][3] != "57" {
		t.Errorf("field counts = %v / %v", rep.Rows[0][3], rep.Rows[2][3])
	}
	// T2 is the biggest table.
	t1 := parseF(t, rep.Rows[0][1])
	t2 := parseF(t, rep.Rows[1][1])
	t3 := parseF(t, rep.Rows[2][1])
	if !(t2 > t1 && t1 > t3) {
		t.Errorf("size ordering violated: %v %v %v", t1, t2, t3)
	}
}

func TestFig4Shape(t *testing.T) {
	rep, err := Fig4(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, row := range rep.Rows {
		v := parseF(t, row[1])
		if v < prev {
			t.Errorf("locality not monotone: %v", rep.Rows)
			break
		}
		prev = v
	}
	if parseF(t, rep.Rows[0][1]) <= 0 {
		t.Error("shortest span should already repeat columns")
	}
}

func TestFig5Shape(t *testing.T) {
	rep, err := Fig5(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	first := parseF(t, rep.Rows[0][1])
	last := parseF(t, rep.Rows[len(rep.Rows)-1][1])
	if first < 0.3 || last < first || last > 1 {
		t.Errorf("similarity series out of shape: first=%v last=%v", first, last)
	}
}

func TestFig8Shape(t *testing.T) {
	rep, err := Fig8(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows[0][0] != "aggregation" {
		t.Errorf("dominant kind = %v", rep.Rows[0][0])
	}
	if !strings.Contains(rep.Notes[0], "scan+aggregation") {
		t.Errorf("notes = %v", rep.Notes)
	}
}

func TestFig9aShape(t *testing.T) {
	rep, err := Fig9a(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	firstSpeedup := parseF(t, rep.Rows[0][3])
	lastSpeedup := parseF(t, rep.Rows[len(rep.Rows)-1][3])
	// Paper shape: performance improves as more queries are processed.
	if lastSpeedup <= firstSpeedup {
		t.Errorf("speedup did not grow: first=%v last=%v\n%s", firstSpeedup, lastSpeedup, rep)
	}
	if lastSpeedup < 1.5 {
		t.Errorf("warm speedup %v too small\n%s", lastSpeedup, rep)
	}
}

func TestFig9bShape(t *testing.T) {
	rep, err := Fig9b(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	last := rep.Rows[len(rep.Rows)-1]
	smart := parseF(t, last[1])
	btree := parseF(t, last[2])
	plain := parseF(t, last[3])
	// Paper shape: warm SmartIndex beats B-tree; B-tree beats no index.
	if !(smart > btree && btree > plain) {
		t.Errorf("warm ordering violated: smart=%v btree=%v none=%v\n%s", smart, btree, plain, rep)
	}
}

func TestFig10Shape(t *testing.T) {
	rep, err := Fig10(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	speedup := parseF(t, rep.Rows[2][1])
	if speedup <= 1.0 {
		t.Errorf("SmartIndex speedup = %v, want > 1\n%s", speedup, rep)
	}
}

func TestFig11Shape(t *testing.T) {
	rep, err := Fig11(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	n := len(rep.Rows)
	missSmall := parseF(t, rep.Rows[0][2])
	missBig := parseF(t, rep.Rows[n-1][2])
	if missBig > missSmall {
		t.Errorf("miss ratio should fall with memory: %v -> %v\n%s", missSmall, missBig, rep)
	}
	thSmall := parseF(t, rep.Rows[0][3])
	thBig := parseF(t, rep.Rows[n-1][3])
	if thBig < thSmall*0.9 {
		t.Errorf("throughput should not fall with memory: %v -> %v", thSmall, thBig)
	}
	// The paper's 512MB≈2GB point: the last two budgets perform alike.
	th1x := parseF(t, rep.Rows[n-2][3])
	if th1x < thBig*0.7 {
		t.Errorf("1x budget should be close to 2x: %v vs %v", th1x, thBig)
	}
}

func TestFig12Shape(t *testing.T) {
	rep, err := Fig12(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	var measured []float64
	var extrapolated []float64
	for _, row := range rep.Rows {
		switch row[2] {
		case "measured":
			measured = append(measured, durSeconds(t, row[1]))
		case "extrapolated":
			extrapolated = append(extrapolated, durSeconds(t, row[1]))
		}
	}
	for i := 1; i < len(measured); i++ {
		if measured[i] >= measured[i-1] {
			t.Errorf("measured response not falling with nodes: %v", measured)
			break
		}
	}
	for i := 1; i < len(extrapolated); i++ {
		if extrapolated[i] >= extrapolated[i-1] {
			t.Errorf("extrapolated response not falling with nodes: %v", extrapolated)
			break
		}
	}
	// Linearity of the extrapolation: halving work should roughly halve
	// time (within 25%).
	if len(extrapolated) >= 2 {
		ratio := extrapolated[0] / extrapolated[1]
		if ratio < 1.5 || ratio > 2.5 {
			t.Errorf("extrapolated scaling ratio = %v, want ~2", ratio)
		}
	}
}

func durSeconds(t *testing.T, s string) float64 {
	t.Helper()
	d, err := time.ParseDuration(s)
	if err != nil {
		t.Fatalf("parse duration %q: %v", s, err)
	}
	return d.Seconds()
}

func TestAblations(t *testing.T) {
	rep, err := Ablations(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	byStudy := map[string][][]string{}
	for _, row := range rep.Rows {
		byStudy[row[0]] = append(byStudy[row[0]], row)
	}
	// Compression shrinks the index footprint.
	comp := byStudy["index compression"]
	if len(comp) != 2 || parseF(t, comp[1][3]) >= parseF(t, comp[0][3]) {
		t.Errorf("compression rows = %v", comp)
	}
	// Derivation converts misses into derived hits.
	der := byStudy["negation derivation"]
	if len(der) != 2 {
		t.Fatalf("derivation rows = %v", der)
	}
	onHits := parseF(t, strings.Fields(der[0][3])[0])
	offHits := parseF(t, strings.Fields(der[1][3])[0])
	if onHits <= 0 || offHits != 0 {
		t.Errorf("derivation hits on=%v off=%v", onHits, offHits)
	}
	// Followers execute nothing; at least the first statement executes.
	reuse := byStudy["result reuse"]
	if len(reuse) != 2 {
		t.Fatalf("reuse rows = %v", reuse)
	}
	planned, executed := parseF(t, reuse[0][3]), parseF(t, reuse[1][3])
	if executed <= 0 || executed > planned {
		t.Errorf("reuse executed %v of %v planned leaf tasks", executed, planned)
	}
}

func TestAblationTTLPinning(t *testing.T) {
	rep, err := Ablations(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, row := range rep.Rows {
		if row[0] == "TTL vs pinning" {
			rows = append(rows, row)
		}
	}
	if len(rows) != 2 {
		t.Fatalf("ttl rows = %v", rows)
	}
	parseHM := func(s string) (float64, float64) {
		parts := strings.SplitN(s, "/", 2)
		return parseF(t, parts[0]), parseF(t, parts[1])
	}
	hNo, _ := parseHM(rows[0][3])
	hPin, _ := parseHM(rows[1][3])
	if hNo != 0 {
		t.Errorf("instant TTL without pinning should never hit, got %v", hNo)
	}
	if hPin == 0 {
		t.Errorf("pinning should produce hits despite the TTL: %v", rows[1])
	}
}
