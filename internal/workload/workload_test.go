package workload

import (
	"context"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/storage"
)

func smallSpec() DatasetSpec {
	return DatasetSpec{Name: "T1", Fields: 20, Partitions: 2, RowsPerPart: 128, PathPrefix: "/t1", Seed: 1}
}

func TestBuildSchemaShapes(t *testing.T) {
	for _, spec := range []DatasetSpec{T1Spec(), T2Spec(), T3Spec()} {
		s := BuildSchema(spec)
		if s.Len() != spec.Fields {
			t.Errorf("%s fields = %d, want %d", spec.Name, s.Len(), spec.Fields)
		}
	}
	// T3's attributes are a subset of T1's (paper Table I).
	t1 := BuildSchema(T1Spec())
	t3 := BuildSchema(T3Spec())
	for _, f := range t3.Fields {
		if t1.Index(f.Name) < 0 {
			t.Errorf("T3 column %q not in T1", f.Name)
		}
	}
}

func TestGenerateDeterministicAndQueryable(t *testing.T) {
	router := storage.NewRouter(storage.NewMemFS("", nil))
	ctx := context.Background()
	spec := smallSpec()
	meta, err := Generate(ctx, router, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Partitions) != 2 || meta.Rows() != 256 {
		t.Fatalf("meta = %+v", meta)
	}

	// Same seed, same bytes.
	router2 := storage.NewRouter(storage.NewMemFS("", nil))
	if _, err := Generate(ctx, router2, spec); err != nil {
		t.Fatal(err)
	}
	d1, _ := router.ReadFile(ctx, "/t1/p0000")
	d2, _ := router2.ReadFile(ctx, "/t1/p0000")
	if string(d1) != string(d2) {
		t.Error("generation is not deterministic")
	}

	// The generated data is queryable end to end.
	cat := plan.MapCatalog{"T1": meta}
	stmt, err := sqlparser.Parse("SELECT COUNT(*) FROM T1 WHERE clicks >= 0")
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Plan(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	reader := exec.NewStoreReader(router)
	var merged *exec.TaskResult
	for _, task := range p.Tasks() {
		tr, err := exec.RunTaskModel(ctx, task, reader, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		merged = exec.MergeResults(p, merged, tr)
	}
	res, err := exec.Finalize(p, merged)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 256 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func testLogConfig() LogConfig {
	cfg := DefaultLogConfig()
	cfg.Duration = 3 * 24 * time.Hour
	cfg.QueriesPerDay = 800
	return cfg
}

func TestGenerateLogShape(t *testing.T) {
	cfg := testLogConfig()
	log := GenerateLog(cfg)
	want := int(float64(cfg.QueriesPerDay) * cfg.Duration.Hours() / 24)
	if len(log) != want {
		t.Fatalf("entries = %d, want %d", len(log), want)
	}
	// Timestamps are ordered and inside the horizon.
	for i := 1; i < len(log); i++ {
		if log[i].Time.Before(log[i-1].Time) {
			t.Fatal("log not time-ordered")
		}
	}
	if log[len(log)-1].Time.After(cfg.Start.Add(cfg.Duration)) {
		t.Error("entries past the horizon")
	}
	// Deterministic.
	log2 := GenerateLog(cfg)
	if log2[100].SQL != log[100].SQL {
		t.Error("log generation is not deterministic")
	}
}

func TestGeneratedSQLParses(t *testing.T) {
	log := GenerateLog(testLogConfig())
	for i, e := range log {
		if i%37 != 0 { // sample
			continue
		}
		if _, err := sqlparser.Parse(e.SQL); err != nil {
			t.Fatalf("entry %d %q: %v", i, e.SQL, err)
		}
	}
}

func TestGeneratedPredicatesMatchPlannerAtoms(t *testing.T) {
	// The log's canonical predicate strings must agree with the planner's
	// atom keys, or the similarity analysis would diverge from what
	// SmartIndex actually sees.
	log := GenerateLog(testLogConfig())
	cat := plan.MapCatalog{"T1": {Name: "T1", Schema: BuildSchema(T1Spec())}}
	checked := 0
	for _, e := range log {
		if len(e.Predicates) == 0 || checked > 200 {
			continue
		}
		stmt, err := sqlparser.Parse(e.SQL)
		if err != nil {
			t.Fatalf("%q: %v", e.SQL, err)
		}
		a, err := plan.Analyze(stmt, cat)
		if err != nil {
			t.Fatalf("%q: %v", e.SQL, err)
		}
		cnf := plan.ToCNF(a.Where)
		keys := make(map[string]bool)
		for _, cl := range cnf.Clauses {
			for _, atom := range cl.Atoms {
				keys[atom.Key()] = true
			}
		}
		for _, p := range e.Predicates {
			if !keys[p] {
				t.Fatalf("%q: predicate %q not among planner atoms %v", e.SQL, p, keys)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no predicated queries checked")
	}
}

func TestDataLocalityGrowsWithSpan(t *testing.T) {
	log := GenerateLog(testLogConfig())
	pts := AnalyzeDataLocality(log, DefaultSpans)
	if len(pts) != len(DefaultSpans) {
		t.Fatalf("points = %d", len(pts))
	}
	// Fig. 4's shape: repeated-column count grows with the span.
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value {
			t.Errorf("locality not monotone: %v", pts)
			break
		}
	}
	if pts[0].Value <= 0 {
		t.Error("short spans should still show repeated columns")
	}
}

func TestQuerySimilarityHighInWindows(t *testing.T) {
	log := GenerateLog(testLogConfig())
	pts := AnalyzeQuerySimilarity(log, DefaultSpans)
	// Fig. 5's shape: a large share of queries reuse a predicate, growing
	// with the span.
	if pts[0].Value < 0.3 {
		t.Errorf("30m similarity = %v, want >= 0.3", pts[0].Value)
	}
	last := pts[len(pts)-1].Value
	if last < pts[0].Value {
		t.Errorf("similarity should grow with span: %v", pts)
	}
	if last > 1 {
		t.Errorf("ratio out of range: %v", last)
	}
}

func TestKeywordHistogram(t *testing.T) {
	log := GenerateLog(testLogConfig())
	hist := AnalyzeKeywords(log)
	if len(hist) == 0 || hist[0].Keyword != "aggregation" {
		t.Errorf("histogram = %+v", hist)
	}
	if r := ScanAggRatio(log); r < 0.99 {
		t.Errorf("scan+agg ratio = %v, want >= 0.99 (paper Fig. 8)", r)
	}
}

func TestAnalyzersEmptyLog(t *testing.T) {
	if pts := AnalyzeDataLocality(nil, DefaultSpans); pts[0].Value != 0 {
		t.Error("empty log locality should be 0")
	}
	if pts := AnalyzeQuerySimilarity(nil, DefaultSpans); pts[0].Value != 0 {
		t.Error("empty log similarity should be 0")
	}
	if ScanAggRatio(nil) != 0 {
		t.Error("empty ratio should be 0")
	}
}

func TestForEachWindowCoversAll(t *testing.T) {
	log := GenerateLog(testLogConfig())
	seen := 0
	forEachWindow(log, time.Hour, func(entries []LogEntry) { seen += len(entries) })
	if seen != len(log) {
		t.Errorf("windows covered %d of %d entries", seen, len(log))
	}
}
