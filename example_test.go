package feisu_test

import (
	"context"
	"fmt"
	"time"

	feisu "repro"
)

// Example_quickstart boots an in-process Feisu cluster, loads a small table
// onto the simulated HDFS, and runs aggregation queries through the full
// master/stem/leaf pipeline.
func Example_quickstart() {
	sys, err := feisu.New(feisu.Config{Leaves: 4})
	check(err)
	defer sys.Close()

	schema := feisu.MustSchema(
		feisu.Field{Name: "id", Type: feisu.Int64},
		feisu.Field{Name: "product", Type: feisu.String},
		feisu.Field{Name: "revenue", Type: feisu.Float64},
	)
	ld, err := sys.NewLoader("sales", schema, "/hdfs/sales")
	check(err)
	ld.SetPartitionRows(256)
	products := []string{"web-search", "maps", "music", "encyclopedia"}
	for i := 0; i < 1000; i++ {
		check(ld.Append(feisu.Row{
			feisu.Int(int64(i)),
			feisu.Str(products[i%len(products)]),
			feisu.Float(float64(i%97) * 1.5),
		}))
	}
	check(ld.Close())

	ctx := context.Background()
	for _, q := range []string{
		"SELECT COUNT(*) FROM sales",
		"SELECT product, SUM(revenue) AS total FROM sales GROUP BY product ORDER BY total DESC",
		"SELECT COUNT(*) FROM sales WHERE revenue > 100 AND product = 'maps'",
	} {
		fmt.Println(q)
		show(sys, ctx, q)
	}

	// The second run of a predicate is served from SmartIndex.
	_, err = sys.Query(ctx, "SELECT COUNT(*) FROM sales WHERE revenue > 100 AND product = 'maps'")
	check(err)
	st := sys.IndexStats()
	fmt.Printf("SmartIndex: %d entries, %d hits, %d misses\n", st.Entries, st.Hits, st.Misses)
	// Output:
	// SELECT COUNT(*) FROM sales
	//    1000
	//
	// SELECT product, SUM(revenue) AS total FROM sales GROUP BY product ORDER BY total DESC
	//    "web-search"	17679.00
	//    "encyclopedia"	17640.00
	//    "maps"	17617.50
	//    "music"	17556.00
	//
	// SELECT COUNT(*) FROM sales WHERE revenue > 100 AND product = 'maps'
	//    75
	//
	// SmartIndex: 8 entries, 8 hits, 8 misses
}

// Example_debugging is the paper's Case 1 (§II): a system engineer hunts a
// malfunction whose evidence spans storage domains — service logs on the
// online machines' local filesystems and the page index on HDFS. The
// trial-and-error session narrows the problem by adding predicates one by
// one; SmartIndex makes each refinement cheaper than the last because every
// already-evaluated predicate is answered from cached bitmaps.
func Example_debugging() {
	sys, err := feisu.New(feisu.Config{Leaves: 4})
	check(err)
	defer sys.Close()
	loadServiceLogs(sys)
	loadPageIndex(sys)

	ctx := context.Background()
	// The engineer's session, exactly the trial-and-error pattern of §IV-A:
	// broad first, then predicates accumulate.
	session := []string{
		// 1. How bad is it overall? (local-FS logs)
		"SELECT COUNT(*) FROM servicelog WHERE status != 200",
		// 2. Same broad filter, narrowed to the retrieval service.
		"SELECT COUNT(*) FROM servicelog WHERE status != 200 AND component = 'retrieval'",
		// 3. Which shards? Both prior predicates are index hits now.
		"SELECT shard, COUNT(*) AS errs FROM servicelog WHERE status != 200 AND component = 'retrieval' GROUP BY shard ORDER BY errs DESC LIMIT 3",
		// 4. Cross-domain join: do the failing shards hold stale pages?
		//    (pageindex lives on the HDFS store, servicelog on local FS.)
		"SELECT s.shard, MIN(p.crawl_ts) AS oldest FROM servicelog s JOIN pageindex p ON s.shard = p.shard WHERE s.status != 200 GROUP BY s.shard ORDER BY oldest LIMIT 3",
	}
	for i, q := range session {
		res, stats, err := sys.QueryStats(ctx, q)
		check(err)
		fmt.Printf("step %d\n", i+1)
		printRows(res)
		fmt.Printf("   index hits=%d misses=%d column-reads=%d\n",
			stats.Scan.IndexHits, stats.Scan.IndexMisses, stats.Scan.ColumnReads)
	}
	st := sys.IndexStats()
	fmt.Printf("session total: %d predicates cached, %d reused\n", st.Entries, st.Hits+st.DerivedHits)
	// Output:
	// step 1
	//    41
	//    index hits=0 misses=4 column-reads=4
	// step 2
	//    41
	//    index hits=4 misses=4 column-reads=4
	// step 3
	//    7	41
	//    index hits=8 misses=0 column-reads=4
	// step 4
	//    7	1690000000
	//    index hits=4 misses=0 column-reads=4
	// session total: 8 predicates cached, 16 reused
}

func loadServiceLogs(sys *feisu.System) {
	schema := feisu.MustSchema(
		feisu.Field{Name: "ts", Type: feisu.Int64},
		feisu.Field{Name: "component", Type: feisu.String},
		feisu.Field{Name: "shard", Type: feisu.Int64},
		feisu.Field{Name: "status", Type: feisu.Int64},
		feisu.Field{Name: "latency_ms", Type: feisu.Float64},
	)
	// Local filesystem domain: no /hdfs/ prefix.
	ld, err := sys.NewLoader("servicelog", schema, "/var/log/search")
	check(err)
	ld.SetPartitionRows(512)
	components := []string{"retrieval", "ranking", "frontend"}
	for i := 0; i < 2000; i++ {
		status := int64(200)
		if i%3 == 0 && i%16 == 7 { // shard 7's retrieval service is the planted malfunction
			status = 500
		}
		check(ld.Append(feisu.Row{
			feisu.Int(int64(1700000000 + i)),
			feisu.Str(components[i%3]),
			feisu.Int(int64(i % 16)),
			feisu.Int(status),
			feisu.Float(float64(i%40) * 2.5),
		}))
	}
	check(ld.Close())
}

func loadPageIndex(sys *feisu.System) {
	schema := feisu.MustSchema(
		feisu.Field{Name: "shard", Type: feisu.Int64},
		feisu.Field{Name: "url", Type: feisu.String},
		feisu.Field{Name: "crawl_ts", Type: feisu.Int64},
	)
	ld, err := sys.NewLoader("pageindex", schema, "/hdfs/pageindex")
	check(err)
	for shard := 0; shard < 16; shard++ {
		ts := int64(1699990000)
		if shard == 7 {
			ts = 1690000000 // the stale shard
		}
		check(ld.Append(feisu.Row{
			feisu.Int(int64(shard)),
			feisu.Str(fmt.Sprintf("http://index/shard-%d", shard)),
			feisu.Int(ts),
		}))
	}
	check(ld.Close())
}

// Example_productAnalysis is the paper's Case 3 (§II): periodic revenue
// reporting reads the latest hot data together with historical data from
// the cold archive. Hot partitions live on the HDFS store; last year's live
// on the Fatman-like /ffs/ archive. One query spans both without any
// copying, and the time-limit / processed-ratio option returns a partial
// answer when the cold tier is slow.
func Example_productAnalysis() {
	sys, err := feisu.New(feisu.Config{Leaves: 4})
	check(err)
	defer sys.Close()

	schema := feisu.MustSchema(
		feisu.Field{Name: "day", Type: feisu.Int64},
		feisu.Field{Name: "product", Type: feisu.String},
		feisu.Field{Name: "region", Type: feisu.String},
		feisu.Field{Name: "revenue", Type: feisu.Float64},
	)
	// Historical data: days 0..364 on the cold archive.
	cold, err := sys.NewLoader("revenue_2015", schema, "/ffs/revenue/2015")
	check(err)
	cold.SetPartitionRows(1024)
	appendDays(cold, 0, 365, 0.9)
	check(cold.Close())
	// Fresh data: days 365..394 on HDFS.
	hot, err := sys.NewLoader("revenue_2016", schema, "/hdfs/revenue/2016")
	check(err)
	appendDays(hot, 365, 395, 1.2)
	check(hot.Close())

	ctx := context.Background()
	fmt.Println("-- last-30-days indicator (hot tier only)")
	show(sys, ctx, "SELECT product, SUM(revenue) AS total FROM revenue_2016 GROUP BY product ORDER BY total DESC")
	fmt.Println("-- year-over-year tendency (cold archive)")
	show(sys, ctx, "SELECT region, AVG(revenue) AS avg_rev, COUNT(*) AS days FROM revenue_2015 WHERE product = 'maps' GROUP BY region ORDER BY avg_rev DESC")

	fmt.Println("-- interactive check with a response-time budget: accept a partial answer")
	res, stats, err := sys.QueryStats(ctx,
		"SELECT COUNT(*) FROM revenue_2015 WHERE revenue > 120",
		feisu.WithTimeLimit(2*time.Second), feisu.WithMinProcessedRatio(0.5))
	check(err)
	fmt.Printf("   count=%s processed=%.0f%% partial=%v (sim %s)\n",
		res.Rows[0][0].String(), res.ProcessedRatio*100, res.Partial, stats.SimTime.Round(time.Millisecond))
	fmt.Printf("cold-tier bytes read: %v\n", stats.BytesByDevice)
	// Output:
	// -- last-30-days indicator (hot tier only)
	//    "music"	16686.00
	//    "maps"	15606.00
	//    "web-search"	14526.00
	//
	// -- year-over-year tendency (cold archive)
	//    "gz"	129.40	365
	//    "sh"	124.90	365
	//    "bj"	120.40	365
	//
	// -- interactive check with a response-time budget: accept a partial answer
	//    count=1972 processed=100% partial=false (sim 44ms)
	// cold-tier bytes read: map[cold:26300]
}

func appendDays(ld *feisu.Loader, from, to int, factor float64) {
	products := []string{"web-search", "maps", "music"}
	regions := []string{"bj", "sh", "gz"}
	for day := from; day < to; day++ {
		for pi, p := range products {
			for ri, r := range regions {
				rev := factor * float64(100+day%50+10*pi+5*ri)
				check(ld.Append(feisu.Row{feisu.Int(int64(day)), feisu.Str(p), feisu.Str(r), feisu.Float(rev)}))
			}
		}
	}
}

// Example_federation puts three storage domains (local FS, HDFS, cold
// archive) under one SQL view, with the entry guard enforcing per-domain
// grants and quotas (paper §III-C, §V-A), and warms SmartIndex over a
// repeated-predicate stream (the Fig. 9 mechanism on a small scale).
func Example_federation() {
	sys, err := feisu.New(feisu.Config{
		Leaves:                      4,
		EnableAuth:                  true,
		MaxConcurrentQueriesPerUser: 4,
		IndexCompress:               true,
	})
	check(err)
	defer sys.Close()

	// One table per storage domain.
	loadEvents(sys, "events_local", "/data/events", 500)
	loadEvents(sys, "events_hdfs", "/hdfs/events", 800)
	loadEvents(sys, "events_cold", "/ffs/events", 300)

	// Identity setup: the analyst may read local + hdfs, not the archive.
	authy := sys.Authority()
	token, err := authy.Register("analyst")
	check(err)
	authy.Grant("analyst", "")     // local FS domain
	authy.Grant("analyst", "hdfs") // HDFS domain
	authy.MapDomain("analyst", "hdfs", "svc-analyst")

	ctx := context.Background()
	for _, table := range []string{"events_local", "events_hdfs", "events_cold"} {
		res, err := sys.Query(ctx, fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE kind = 'click'", table), feisu.WithToken(token))
		if err != nil {
			fmt.Printf("%-12s -> DENIED: %v\n", table, err)
			continue
		}
		fmt.Printf("%-12s -> %s click events\n", table, res.Rows[0][0].String())
	}

	// Warm SmartIndex with a repeated predicate and show the effect.
	fmt.Println("warming SmartIndex on the hdfs domain:")
	for i := 0; i < 3; i++ {
		_, stats, err := sys.QueryStats(ctx, "SELECT COUNT(*) FROM events_hdfs WHERE value > 500 AND kind = 'click'", feisu.WithToken(token))
		check(err)
		fmt.Printf("  run %d: sim=%s hits=%d misses=%d reads=%d\n",
			i+1, stats.SimTime.Round(time.Microsecond), stats.Scan.IndexHits, stats.Scan.IndexMisses, stats.Scan.ColumnReads)
	}
	st := sys.IndexStats()
	fmt.Printf("index state: %d entries, %d bytes (compressed)\n", st.Entries, st.Bytes)
	// Output:
	// events_local -> 167 click events
	// events_hdfs  -> 267 click events
	// events_cold  -> DENIED: auth: access denied: user "analyst" on domain "ffs"
	// warming SmartIndex on the hdfs domain:
	//   run 1: sim=12.004ms hits=4 misses=4 reads=4
	//   run 2: sim=4.001ms hits=8 misses=0 reads=0
	//   run 3: sim=4.001ms hits=8 misses=0 reads=0
	// index state: 10 entries, 1797 bytes (compressed)
}

func loadEvents(sys *feisu.System, table, prefix string, n int) {
	schema := feisu.MustSchema(
		feisu.Field{Name: "id", Type: feisu.Int64},
		feisu.Field{Name: "kind", Type: feisu.String},
		feisu.Field{Name: "value", Type: feisu.Int64},
	)
	ld, err := sys.NewLoader(table, schema, prefix)
	check(err)
	ld.SetPartitionRows(256)
	kinds := []string{"click", "view", "scroll"}
	for i := 0; i < n; i++ {
		check(ld.Append(feisu.Row{feisu.Int(int64(i)), feisu.Str(kinds[i%3]), feisu.Int(int64(i * 7 % 1000))}))
	}
	check(ld.Close())
}

// Example_prototyping is the paper's Case 2 (§II): before Feisu, one round
// of data preparation cost almost a week; with Feisu, fresh behaviour data is
// queryable as soon as the leaf-side conversion process picks it up. It
// prototypes a "voice search" idea: raw JSON behaviour logs stream in, the
// watcher converts them to columnar partitions, and the product engineer
// demarcates the benefited user set with interactive queries, whose
// repeated predicates get personalized (pinned) indexes.
func Example_prototyping() {
	sys, err := feisu.New(feisu.Config{
		Leaves:               4,
		PersonalizeThreshold: 2, // pin predicates after two uses
	})
	check(err)
	defer sys.Close()
	ctx := context.Background()

	schema := feisu.MustSchema(
		feisu.Field{Name: "ts", Type: feisu.Int64},
		feisu.Field{Name: "uid", Type: feisu.Int64},
		feisu.Field{Name: "surface", Type: feisu.String}, // "voice" | "text"
		feisu.Field{Name: "query.len", Type: feisu.Int64},
		feisu.Field{Name: "success", Type: feisu.Bool},
	)
	// The conversion watcher: raw logs land on the local FS of online
	// machines; partitions go to HDFS.
	stop, err := sys.WatchJSON("behaviour", schema, "/var/log/voice", "/hdfs/behaviour", 5*time.Millisecond)
	check(err)
	defer stop()

	// Day 1 of the experiment arrives as raw JSON lines.
	writeBatch(sys, 0)
	waitForRows(sys, ctx, 400)
	fmt.Println("-- first look: who uses voice at all?")
	show(sys, ctx, "SELECT surface, COUNT(*) AS n FROM behaviour GROUP BY surface ORDER BY n DESC")

	fmt.Println("-- refine: demarcate the benefited user set (repeated across iterations)")
	for round := 1; round <= 3; round++ {
		res, err := sys.Query(ctx, "SELECT COUNT(*) FROM behaviour WHERE surface = 'voice' AND success = TRUE AND query.len > 12")
		check(err)
		fmt.Printf("   iteration %d: %s long successful voice queries\n", round, res.Rows[0][0].String())
	}
	fmt.Printf("   pinned as private index: %v\n", sys.History().PinnedPredicates())

	// Day 2 data arrives mid-prototyping; no re-preparation needed.
	writeBatch(sys, 1)
	waitForRows(sys, ctx, 800)
	fmt.Println("-- day 2 landed; the same question over fresh data, instantly:")
	show(sys, ctx, "SELECT surface, COUNT(*) AS n FROM behaviour WHERE success = TRUE GROUP BY surface ORDER BY n DESC")

	plan, err := sys.Explain("SELECT COUNT(*) FROM behaviour WHERE surface = 'voice' AND query.len > 12")
	check(err)
	fmt.Println("-- how the engine runs it:")
	fmt.Println(plan)
	// Output:
	// -- first look: who uses voice at all?
	//    "text"	266
	//    "voice"	134
	//
	// -- refine: demarcate the benefited user set (repeated across iterations)
	//    iteration 1: 60 long successful voice queries
	//    iteration 2: 60 long successful voice queries
	//    iteration 3: 60 long successful voice queries
	//    pinned as private index: [query.len > 12 success = true surface = "voice"]
	// -- day 2 landed; the same question over fresh data, instantly:
	//    "text"	400
	//    "voice"	200
	//
	// -- how the engine runs it:
	// query: SELECT COUNT(*) FROM behaviour WHERE ((behaviour.surface = 'voice') AND (behaviour.query.len > 12))
	// fingerprint: SELECT COUNT(*) FROM behaviour WHERE ((behaviour.surface = ?:STRING) AND (behaviour.query.len > ?:BIGINT))
	// mode: aggregate
	// fact table: behaviour (2 partitions, 800 rows cataloged)
	// fact columns read: surface, query.len
	// pushed-down filter (CNF, evaluated at leaves with SmartIndex):
	//   - surface = "voice" [indexable]
	//   - query.len > 12 [indexable]
	// partial aggregates at leaves: COUNT(*)
	// dissection: 2 leaf sub-plan(s), one per fact partition
}

func writeBatch(sys *feisu.System, day int) {
	var buf []byte
	for i := 0; i < 400; i++ {
		surface := "text"
		if i%3 == 0 {
			surface = "voice"
		}
		buf = fmt.Appendf(buf, `{"ts": %d, "uid": %d, "surface": %q, "query": {"len": %d}, "success": %v}`+"\n",
			1700000000+day*86400+i, i%50, surface, 5+i%20, i%4 != 0)
	}
	check(sys.Router().WriteFile(context.Background(), fmt.Sprintf("/var/log/voice/day%d.json", day), buf))
}

// waitForRows polls until the watcher has converted want rows.
func waitForRows(sys *feisu.System, ctx context.Context, want int64) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := sys.Query(ctx, "SELECT COUNT(*) FROM behaviour")
		if err == nil && res.Rows[0][0].I >= want {
			return
		}
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("ingest never reached %d rows", want))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// show runs q and prints its rows and a blank line.
func show(sys *feisu.System, ctx context.Context, q string) {
	res, err := sys.Query(ctx, q)
	check(err)
	printRows(res)
	fmt.Println()
}

// printRows prints one indented, tab-separated line per row, each DOUBLE to
// two decimals: a sum of DOUBLEs merged from several partitions may differ
// in its last bits with the order the partials arrive in.
func printRows(res *feisu.Result) {
	for _, row := range res.Rows {
		fmt.Print("   ")
		for i, v := range row {
			if i > 0 {
				fmt.Print("\t")
			}
			if v.T == feisu.Float64 {
				fmt.Printf("%.2f", v.F)
			} else {
				fmt.Print(v.String())
			}
		}
		fmt.Println()
	}
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
