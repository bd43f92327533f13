package feisu

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/workload"
)

// newGoldenSystem builds a one-partition deployment whose plans and traces
// are deterministic: serial scans (ScanWorkers -1), no background heartbeat
// ticker, admission control on (so EXPLAIN ANALYZE carries the queue-wait
// line), and T1 resident on the in-memory store so placement never depends
// on replica choice.
func newGoldenSystem(t *testing.T) *System {
	return newGoldenSystemParts(t, 1)
}

// newGoldenSystemParts is newGoldenSystem with T1 split into the given
// number of partitions (placed leaf0, leaf1, leaf0, … — the in-memory store
// has no replica holders, so ties break by load and then by name).
func newGoldenSystemParts(t *testing.T, partitions int) *System {
	t.Helper()
	sys, err := New(Config{
		Leaves:               2,
		HeartbeatInterval:    -1,
		ScanWorkers:          -1,
		MaxConcurrentQueries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })

	spec := workload.T1Spec()
	spec.PathPrefix = "/mem/t1"
	spec.Partitions = partitions
	spec.RowsPerPart = 256
	spec.Fields = 10
	ctx := context.Background()
	meta, err := workload.Generate(ctx, sys.Router(), spec)
	if err == nil {
		err = sys.RegisterTable(ctx, meta)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// normalizeTrace blanks the volatile tokens of an execution trace — sim and
// wall durations vary with the host, and the critical-path section adds a
// total= token and percentage shares — while keeping structure, counters and
// attributes exact. Fixed-width columns pad to the rendered duration's
// length, so the spacing adjacent to a normalized token (and any trailing
// whitespace) is collapsed too.
var (
	durToken   = regexp.MustCompile(`(^|\s)(sim|wall|total)=\S+`)
	pctToken   = regexp.MustCompile(`\d+\.\d%`)
	durPad     = regexp.MustCompile(`<dur> +`)
	pctPad     = regexp.MustCompile(` +<pct>`)
	lineSuffix = regexp.MustCompile(`(?m)[ \t]+$`)
)

func normalizeTrace(text string) string {
	text = durToken.ReplaceAllString(text, "$1$2=<dur>")
	text = pctToken.ReplaceAllString(text, "<pct>")
	text = durPad.ReplaceAllString(text, "<dur> ")
	text = pctPad.ReplaceAllString(text, " <pct>")
	return lineSuffix.ReplaceAllString(text, "")
}

// checkGolden compares got against testdata/<name>.golden. Run with
// UPDATE_GOLDEN=1 to regenerate the files after an intentional format
// change (see docs/TESTING.md).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if !strings.HasSuffix(got, "\n") {
		got += "\n"
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (run with UPDATE_GOLDEN=1 to create it): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden file.\ngot:\n%s\nwant:\n%s\n(run UPDATE_GOLDEN=1 go test if the change is intentional)",
			path, got, want)
	}
}

// resultText reassembles a textResult (EXPLAIN output) into the original
// multi-line string.
func resultText(res *Result) string {
	lines := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		lines[i] = row[0].S
	}
	return strings.Join(lines, "\n")
}

func TestExplainGolden(t *testing.T) {
	sys := newGoldenSystem(t)
	res, err := sys.Query(context.Background(),
		"EXPLAIN SELECT uid, clicks FROM T1 WHERE clicks > 3 AND dwell <= 120 ORDER BY uid LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "explain", resultText(res))
}

func TestExplainAnalyzeGolden(t *testing.T) {
	sys := newGoldenSystem(t)
	res, err := sys.Query(context.Background(),
		"EXPLAIN ANALYZE SELECT COUNT(*), SUM(clicks) FROM T1 WHERE clicks > 3")
	if err != nil {
		t.Fatal(err)
	}
	text := normalizeTrace(resultText(res))
	// The admission queue-wait line must be part of the golden trace.
	if !strings.Contains(text, "admission") || !strings.Contains(text, "wait=") {
		t.Fatalf("EXPLAIN ANALYZE trace lacks the admission queue-wait line:\n%s", text)
	}
	checkGolden(t, "explain_analyze", text)
}

// TestExplainAnalyzeMultiTaskGolden pins the order of a scatter statement's
// task spans: four tasks over two leaves list as task#0..task#3 whatever
// order their goroutines ran in, because the stem creates first-attempt
// spans serially at dispatch (verify.sh repeats it 20 times).
func TestExplainAnalyzeMultiTaskGolden(t *testing.T) {
	sys := newGoldenSystemParts(t, 4)
	res, err := sys.Query(context.Background(),
		"EXPLAIN ANALYZE SELECT COUNT(*), SUM(clicks) FROM T1 WHERE clicks > 3")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "explain_analyze_multitask", normalizeTrace(resultText(res)))
}

// TestExplainAnalyzeResultCacheGolden pins the EXPLAIN ANALYZE trace for
// both sides of the semantic result cache: the first execution reports the
// miss and runs tasks; the repeat is served from the cache — its trace is a
// master/result-cache span with zero task spans.
func TestExplainAnalyzeResultCacheGolden(t *testing.T) {
	sys, err := New(Config{
		Leaves:               2,
		HeartbeatInterval:    -1,
		ScanWorkers:          -1,
		MaxConcurrentQueries: 2,
		ResultCacheBytes:     1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	spec := workload.T1Spec()
	spec.PathPrefix = "/mem/t1"
	spec.Partitions = 1
	spec.RowsPerPart = 256
	spec.Fields = 10
	ctx := context.Background()
	meta, err := workload.Generate(ctx, sys.Router(), spec)
	if err == nil {
		err = sys.RegisterTable(ctx, meta)
	}
	if err != nil {
		t.Fatal(err)
	}

	const sql = "EXPLAIN ANALYZE SELECT uid, clicks FROM T1 WHERE clicks > 3"
	miss, err := sys.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "explain_analyze_rescache_miss", normalizeTrace(resultText(miss)))

	hit, err := sys.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	text := normalizeTrace(resultText(hit))
	if !strings.Contains(text, "result-cache") {
		t.Fatalf("cache-hit trace lacks the result-cache span:\n%s", text)
	}
	checkGolden(t, "explain_analyze_rescache_hit", text)
}

// newShuffleGoldenSystem builds a deterministic forced-repartition
// deployment: one leaf (so map-task placement is fixed), no stems (the
// master is the sole reducer), serial scans, and the join pair resident
// in memory. spillGrant <= 0 keeps the default reducer memory grant.
func newShuffleGoldenSystem(t *testing.T, spillGrant int64) *System {
	t.Helper()
	sys, err := New(Config{
		Leaves:               1,
		HeartbeatInterval:    -1,
		ScanWorkers:          -1,
		MaxConcurrentQueries: 2,
		BroadcastThreshold:   1,
		ShufflePartitions:    2,
		ShuffleMemoryBytes:   spillGrant,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })

	spec := workload.DefaultJoinSpec()
	spec.PathPrefix = "/mem/join"
	spec.FactPartitions = 2
	spec.FactRowsPerPart = 32
	spec.DimPartitions = 1
	spec.DimRowsPerPart = 20
	ctx := context.Background()
	factMeta, dimMeta, _, _, err := workload.GenerateJoin(ctx, sys.Router(), spec)
	if err == nil {
		err = sys.RegisterTable(ctx, factMeta)
	}
	if err == nil {
		err = sys.RegisterTable(ctx, dimMeta)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

const shuffleGoldenQuery = "SELECT f.id AS a, f.v AS b, d.name AS c FROM orders f JOIN users d ON f.k = d.k ORDER BY a"

// TestExplainShuffleGolden pins the repartitioned plan rendering: keys,
// shipped columns, partition count and the reducer memory grant.
func TestExplainShuffleGolden(t *testing.T) {
	sys := newShuffleGoldenSystem(t, 0)
	res, err := sys.Query(context.Background(), "EXPLAIN "+shuffleGoldenQuery)
	if err != nil {
		t.Fatal(err)
	}
	text := resultText(res)
	if !strings.Contains(text, "repartition") {
		t.Fatalf("forced-shuffle plan did not repartition:\n%s", text)
	}
	checkGolden(t, "explain_shuffle", text)
}

// TestExplainBroadcastJoinGolden pins the broadcast plan for the same
// query under the default threshold — the dimension is small, so the
// planner must ship it whole instead of repartitioning.
func TestExplainBroadcastJoinGolden(t *testing.T) {
	sys, err := New(Config{
		Leaves:               1,
		HeartbeatInterval:    -1,
		ScanWorkers:          -1,
		MaxConcurrentQueries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	spec := workload.DefaultJoinSpec()
	spec.PathPrefix = "/mem/join"
	spec.FactPartitions = 2
	spec.FactRowsPerPart = 32
	spec.DimPartitions = 1
	spec.DimRowsPerPart = 20
	ctx := context.Background()
	factMeta, dimMeta, _, _, err := workload.GenerateJoin(ctx, sys.Router(), spec)
	if err == nil {
		err = sys.RegisterTable(ctx, factMeta)
	}
	if err == nil {
		err = sys.RegisterTable(ctx, dimMeta)
	}
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(ctx, "EXPLAIN "+shuffleGoldenQuery)
	if err != nil {
		t.Fatal(err)
	}
	text := resultText(res)
	if !strings.Contains(text, "broadcast") || strings.Contains(text, "repartition") {
		t.Fatalf("small dimension did not broadcast:\n%s", text)
	}
	checkGolden(t, "explain_broadcast_join", text)
}

// TestExplainAnalyzeShuffleGolden pins the executed repartition trace:
// map task spans in ordinal order, the shuffle-transfer stage with
// per-partition byte counts, per-partition reduce spans, and the
// critical path's shuffle-transfer segment.
func TestExplainAnalyzeShuffleGolden(t *testing.T) {
	sys := newShuffleGoldenSystem(t, 0)
	res, err := sys.Query(context.Background(), "EXPLAIN ANALYZE "+shuffleGoldenQuery)
	if err != nil {
		t.Fatal(err)
	}
	text := normalizeTrace(resultText(res))
	for _, want := range []string{"shuffle-map", "shuffle-transfer", "shuffle-reduce", "critical path"} {
		if !strings.Contains(text, want) {
			t.Fatalf("EXPLAIN ANALYZE trace lacks %q:\n%s", want, text)
		}
	}
	checkGolden(t, "explain_analyze_shuffle", text)
}

// TestExplainAnalyzeShuffleSpillGolden pins the same trace under a
// one-byte reducer memory grant: the plan header shows the tiny grant
// and the partitioned operators spill every build row.
func TestExplainAnalyzeShuffleSpillGolden(t *testing.T) {
	sys := newShuffleGoldenSystem(t, 1)
	res, stats, err := sys.QueryStats(context.Background(), "EXPLAIN ANALYZE "+shuffleGoldenQuery)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShuffleSpillBytes == 0 {
		t.Fatal("one-byte memory grant did not spill")
	}
	checkGolden(t, "explain_analyze_shuffle_spill", normalizeTrace(resultText(res)))
}
