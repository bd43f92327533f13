package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/types"
)

// genRows generates n rows of logs and returns the generator and its copy.
func genRows(seed uint64, n int) (*rowGen, *segment) {
	g := newRowGen(seed)
	seg := &segment{}
	row := make(types.Row, logSchema().Len())
	for i := 0; i < n; i++ {
		g.row(seg, row)
	}
	return g, seg
}

func sqlOf(list []stmt) []string {
	out := make([]string, len(list))
	for i := range list {
		out[i] = list[i].sql
	}
	return out
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	a, _ := genRows(1, 4096)
	b, _ := genRows(1, 4096)
	c, _ := genRows(2, 4096)
	if a.hash != b.hash {
		t.Errorf("same seed, row hashes %x and %x", a.hash, b.hash)
	}
	if a.hash == c.hash {
		t.Errorf("seeds 1 and 2 gave the same row hash %x", a.hash)
	}
	for _, w := range workloads {
		one, again, other := sqlOf(w.stmts(1)), sqlOf(w.stmts(1)), sqlOf(w.stmts(2))
		if !reflect.DeepEqual(one, again) {
			t.Errorf("%s: same seed, different statement lists", w.name)
		}
		// dash_ingest's panel is a fixed dashboard: its seed moves the rows.
		if !w.ingest && reflect.DeepEqual(one, other) {
			t.Errorf("%s: seeds 1 and 2 gave the same statement list", w.name)
		}
		if len(one)%3 != 0 && w.users {
			t.Errorf("%s: %d statements is not a whole number of A, A, B", w.name, len(one))
		}
	}
	ja, _ := newRowGen(1).batch(logSchema(), 8)
	jb, _ := newRowGen(1).batch(logSchema(), 8)
	if string(ja) != string(jb) {
		t.Error("same seed, different JSON batches")
	}
}

func TestRoundsAreWholePasses(t *testing.T) {
	for _, w := range workloads {
		if n := len(w.stmts(1)); w.opsFor(refSeconds)%n != 0 {
			t.Errorf("%s: a round of %d statements is not a whole number of passes over %d", w.name, w.opsFor(refSeconds), n)
		}
	}
}

func TestStatHelpers(t *testing.T) {
	if got := median([]float64{5, 1, 4}); got != 4 {
		t.Errorf("median of 3 = %v, want 4", got)
	}
	if got := median([]float64{10, 30, 20, 40, 60, 50}); got != 35 {
		t.Errorf("median of 6 rounds = %v, want 35", got)
	}
	d := make([]time.Duration, 100)
	for i := range d {
		d[i] = time.Duration(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(d, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]time.Duration{7, 9, 30}, 50); got != 9 {
		t.Errorf("p50 of 3 = %v, want 9", got)
	}
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
	if q1, q3 = quartiles([]float64{2, 4, 4, 5, 9}); q1 != 3 || q3 != 7 {
		t.Errorf("quartiles of 5 values = %v, %v, want 3, 7", q1, q3)
	}
}

func TestUnknownWorkloadIsRejected(t *testing.T) {
	if _, err := findWorkload("scan_warm"); err == nil {
		t.Error("findWorkload accepted an unknown name")
	}
	for _, w := range workloads {
		if got, err := findWorkload(w.name); err != nil || got != w {
			t.Errorf("findWorkload(%q) = %v, %v", w.name, got, err)
		}
	}
}

// TestMetricsMatchBenchmarkJSON holds the metric tables, the workload table
// and BENCHMARK.json to one another: what a run emits is exactly what the
// file promises, name by name and unit by unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, round sizes are calibrated for %d", doc.RunSeconds, refSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v does not match %q", i, doc.Workloads[i], w.name)
		}
	}

	e := &env{writtenBytes: 100, writtenRows: 1}
	m := &measurement{roundQPS: []float64{1}, roundP50: []float64{1}, roundP95: []float64{1}, roundCPU: []float64{1}, statements: 1}
	emitted := endToEndMetrics(e, m, []float64{1})
	if len(emitted) != len(doc.EndToEnd) {
		t.Errorf("a run emits %d end-to-end metrics, BENCHMARK.json lists %d", len(emitted), len(doc.EndToEnd))
	}
	for i, d := range doc.EndToEnd {
		if got := endToEnd[i]; got.name != d.Name || got.unit != d.Unit || got.better != d.Better || got.bound != d.Bound {
			t.Errorf("end_to_end[%d]: file has %+v, harness has %+v", i, d, got)
		}
		if mv, ok := emitted[d.Name]; !ok || mv.Unit == "" || mv.Unit != d.Unit {
			t.Errorf("%s: emitted %+v (present %v), want unit %q", d.Name, mv, ok, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(perLayer) != len(doc.PerLayer) {
		t.Fatalf("harness has %d per-layer metrics, BENCHMARK.json lists %d", len(perLayer), len(doc.PerLayer))
	}
	seen := map[string]bool{}
	for i, d := range doc.PerLayer {
		if got := perLayer[i]; got.name != d.Name || got.unit != d.Unit || got.better != d.Better || d.Unit == "" {
			t.Errorf("per_layer[%d]: file has %+v, harness has %+v", i, d, got)
		}
		if seen[d.Name] {
			t.Errorf("per-layer metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// checkerEnv is a harness with one partition of rows and no system: enough
// to drive the answer checker.
func checkerEnv(list []stmt) *env {
	_, s0 := genRows(7, partRows)
	list = number(list)
	return &env{w: &workload{}, chk: &checker{base: []*segment{s0}}, stmts: list,
		ref: make([]answer, len(list)), refSeen: make([]bool, len(list))}
}

func countResult(n int64) *exec.Result {
	return &exec.Result{Rows: [][]types.Value{{types.NewInt(n)}}}
}

// TestCheckerFailsClosed proves the three checks reject a wrong answer: the
// checker's own evaluation, the first-execution checksum and the row-by-row
// validation of LIMIT projections.
func TestCheckerFailsClosed(t *testing.T) {
	e := checkerEnv([]stmt{
		{kind: kCount, atoms: []atom{{col: cClicks, op: ">", i: 5}}},
		{kind: kProject, cols: projectCols, limit: 50, atoms: []atom{{col: cClicks, op: ">", i: 40}}},
	})
	count, project := &e.stmts[0], &e.stmts[1]
	seg := e.chk.base[0]
	var truth int64
	for r := 0; r < seg.n; r++ {
		if seg.ints[cClicks][r] > 5 {
			truth++
		}
	}
	if truth == 0 || truth == int64(seg.n) {
		t.Fatalf("degenerate test data: %d of %d rows match", truth, seg.n)
	}

	// Generator-computed answers: the right count matches, a count off by
	// one does not.
	want := e.chk.expect(count, e.chk.base)
	if got, ok := e.chk.observe(count, countResult(truth)); !ok || got != want {
		t.Errorf("right answer rejected: got %+v, want %+v", got, want)
	}
	if got, _ := e.chk.observe(count, countResult(truth+1)); got == want {
		t.Error("a count that is off by one was accepted")
	}

	// First-execution checksums: the second execution must repeat the first.
	right, _ := e.chk.observe(count, countResult(truth))
	wrong, _ := e.chk.observe(count, countResult(truth-1))
	e.verify([]obs{{stmt: 0, ok: true, ans: right}, {stmt: 0, ok: true, ans: right}})
	if e.failed != 0 {
		t.Fatalf("two equal answers counted %d failures", e.failed)
	}
	e.verify([]obs{{stmt: 0, ok: true, ans: wrong}})
	if e.failed != 1 {
		t.Errorf("a changed answer counted %d failures, want 1", e.failed)
	}
	e.verify([]obs{{stmt: 0, ok: false}})
	if e.failed != 2 {
		t.Errorf("a statement error counted %d failures in all, want 2", e.failed)
	}

	// Row validation: a generated row that satisfies the atoms passes; the
	// same row with one value changed, a row that does not satisfy them, and
	// a row returned twice do not.
	match, miss := -1, -1
	for r := 0; r < seg.n && (match < 0 || miss < 0); r++ {
		if seg.ints[cClicks][r] > 40 {
			match = r
		} else {
			miss = r
		}
	}
	if match < 0 {
		t.Fatal("no row with clicks > 40 in the test data")
	}
	rowOf := func(r int) []types.Value {
		row := make([]types.Value, len(projectCols))
		for j, c := range projectCols {
			row[j] = seg.cell(c, r)
		}
		return row
	}
	if got, ok := e.chk.observe(project, &exec.Result{Rows: [][]types.Value{rowOf(match)}}); !ok || got.rows != 1 {
		t.Errorf("a valid projected row was rejected (%+v)", got)
	}
	forged := rowOf(match)
	forged[3] = types.NewInt(forged[3].I + 1)
	for name, rows := range map[string][][]types.Value{
		"forged value":       {forged},
		"non-matching row":   {rowOf(miss)},
		"row returned twice": {rowOf(match), rowOf(match)},
	} {
		if _, ok := e.chk.observe(project, &exec.Result{Rows: rows}); ok {
			t.Errorf("%s was accepted", name)
		}
	}
}

// TestFreshnessInvariant: in dash_ingest the panel's COUNT(*) over the
// window must equal the rows live after that many ingests; an answer that
// is one batch stale fails.
func TestFreshnessInvariant(t *testing.T) {
	g := newRowGen(3)
	row := make(types.Row, logSchema().Len())
	chk := &checker{}
	for p := 0; p < logPartitions; p++ { // ts must reach the dashboard window
		seg := &segment{}
		for r := 0; r < partRows; r++ {
			g.row(seg, row)
		}
		chk.base = append(chk.base, seg)
	}
	for i := 0; i < liveIngested+2; i++ {
		_, seg := g.batch(logSchema(), batchRows)
		chk.ingested = append(chk.ingested, seg)
	}
	e := &env{w: &workload{ingest: true}, chk: chk, stmts: dashStmts()}
	fresh := func(n int) answer {
		live := int64(2*partRows + batchRows*min(n, liveIngested))
		a, _ := chk.observe(&e.stmts[0], countResult(live))
		return a
	}
	e.verify([]obs{{stmt: 0, epoch: 3, ok: true, ans: fresh(3)}, {stmt: 0, epoch: liveIngested + 2, ok: true, ans: fresh(liveIngested + 2)}})
	if e.failed != 0 {
		t.Fatalf("fresh answers counted %d failures", e.failed)
	}
	e.verify([]obs{{stmt: 0, epoch: 4, ok: true, ans: fresh(3)}})
	if e.failed != 1 {
		t.Errorf("an answer one ingest stale counted %d failures, want 1", e.failed)
	}
}

func TestSelfTimes(t *testing.T) {
	r := &recorder{spans: []span{
		{ID: 0, Parent: -1, Name: "statement", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "plan.plan", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "exec.task", Start: 30, End: 90},
	}}
	got := r.selfTimes()
	if got["statement"] != 20 || got["plan.plan"] != 20 || got["exec.task"] != 60 {
		t.Errorf("self times %v, want statement 20, plan.plan 20, exec.task 60", got)
	}
}
