// Command feisu runs ad-hoc queries against an in-process Feisu cluster
// loaded with the scaled evaluation datasets (T1/T2/T3).
//
// Usage:
//
//	feisu -q "SELECT COUNT(*) FROM T1 WHERE clicks > 5"
//	feisu            # interactive: one query per line, blank line to exit
//	feisu -leaves 8 -stats -q "..."
//	feisu -trace -q "..."   # print the query's span tree
//
// Interactive mode understands EXPLAIN / EXPLAIN ANALYZE prefixes and the
// commands `\trace` (toggle span-tree printing), `\stats` (toggle stats),
// `\metrics` (dump the deployment metrics registry), `\top` (live per-leaf
// cluster health dashboard), `\watch` (live per-query progress),
// `\slowlog` (the slow-query log) and `\events` (the flight recorder's
// journal tail).
//
// Telemetry: -metrics-addr starts the HTTP exporter (/metrics in
// Prometheus format, /healthz, /debug/slowlog, /debug/queries,
// /debug/trace/{id}, /debug/events; add pprof with -pprof), and -slow /
// -slow-sim set the slow-query-log thresholds. -trace-export writes every
// finished query trace as one Jaeger-compatible JSON document per line.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	feisu "repro"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/telemetry"
	tracepkg "repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	query := flag.String("q", "", "query to run (omit for interactive mode)")
	leaves := flag.Int("leaves", 4, "leaf servers")
	rows := flag.Int("rows", 4096, "rows per partition of the demo datasets")
	parts := flag.Int("parts", 4, "partitions per demo dataset")
	stats := flag.Bool("stats", false, "print execution statistics")
	trace := flag.Bool("trace", false, "print each query's span tree")
	explain := flag.Bool("explain", false, "print the physical plan instead of executing")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/slowlog on this host:port")
	pprofFlag := flag.Bool("pprof", false, "also mount /debug/pprof on the telemetry server")
	slowWall := flag.Duration("slow", 0, "record queries with wall time >= this in the slow-query log")
	slowSim := flag.Duration("slow-sim", 0, "record queries with simulated time >= this in the slow-query log")
	traceExport := flag.String("trace-export", "", "append every finished query trace to this file as Jaeger-compatible JSON, one document per line (implies per-query tracing)")
	chaosSeed := flag.Int64("chaos-seed", 0, "enable the deterministic fault-injection plane with this seed (0 = off); same seed = same failure schedule")
	maxQueries := flag.Int("max-queries", 0, "admission control: max concurrent queries (0 = unlimited, no admission queue)")
	queueDepth := flag.Int("queue-depth", 0, "admission control: per-class queue depth (0 = 2x max-queries)")
	queueDeadline := flag.Duration("queue-deadline", 0, "admission control: shed queries queued longer than this (0 = wait forever)")
	leafSlots := flag.Int("leaf-slots", 0, "max concurrent task dispatches per leaf (0 = unbounded)")
	resCacheBytes := flag.Int64("result-cache-bytes", 0, "semantic result cache budget in bytes (0 = off); repeated and subsumed queries answer from the master")
	resCacheTTL := flag.Duration("result-cache-ttl", 0, "result cache entry TTL (0 = 5m default, negative = no expiry)")
	cacheAffinity := flag.Bool("cache-affinity", false, "route tasks for the same partition to the same leaf so its caches keep hitting")
	flag.Parse()

	cfg := feisu.Config{
		Leaves:                 *leaves,
		SlowQueryWallThreshold: *slowWall,
		SlowQuerySimThreshold:  *slowSim,
		MaxConcurrentQueries:   *maxQueries,
		MaxQueueDepth:          *queueDepth,
		QueueWaitDeadline:      *queueDeadline,
		LeafSlots:              *leafSlots,
		ResultCacheBytes:       *resCacheBytes,
		ResultCacheTTL:         *resCacheTTL,
		CacheAffinity:          *cacheAffinity,
	}
	if *chaosSeed != 0 {
		cfg.Chaos = chaos.Default(*chaosSeed)
		// Background ticking: kills/stragglers/partitions arrive on a wall
		// clock while the session runs.
		cfg.Chaos.Lifecycle.TickInterval = 500 * time.Millisecond
		cfg.TaskTimeout = 250 * time.Millisecond
		fmt.Fprintf(os.Stderr, "chaos: fault injection enabled, seed %d\n", *chaosSeed)
	}

	sys, err := feisu.New(cfg)
	if err != nil {
		fatal(err)
	}
	defer sys.Close()

	if *metricsAddr != "" {
		srv, err := sys.StartTelemetry(*metricsAddr, *pprofFlag)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: %s/metrics\n", srv.URL())
	}

	var exporter *traceExporter
	if *traceExport != "" {
		f, err := os.OpenFile(*traceExport, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		exporter = &traceExporter{sys: sys, w: f}
		fmt.Fprintf(os.Stderr, "trace export: appending Jaeger JSON lines to %s\n", *traceExport)
	}

	ctx := context.Background()
	fmt.Fprintf(os.Stderr, "loading demo datasets T1, T2, T3 ...\n")
	for _, spec := range []workload.DatasetSpec{workload.T1Spec(), workload.T2Spec(), workload.T3Spec()} {
		spec.Partitions = *parts
		spec.RowsPerPart = *rows
		meta, err := workload.Generate(ctx, sys.Router(), spec)
		if err != nil {
			fatal(err)
		}
		if err := sys.RegisterTable(ctx, meta); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "  %s: %d rows, %d fields, %d partitions\n",
			spec.Name, meta.Rows(), meta.Schema.Len(), len(meta.Partitions))
	}

	if *query != "" {
		if *explain {
			desc, err := sys.Explain(*query)
			if err != nil {
				fatal(err)
			}
			fmt.Print(desc)
			return
		}
		if err := run(sys, *query, *stats, *trace, exporter); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Fprintln(os.Stderr, "feisu> enter queries, blank line to exit")
	fmt.Fprintln(os.Stderr, "feisu> commands: \\trace \\stats \\metrics \\top \\watch \\slowlog \\events \\q; EXPLAIN [ANALYZE] <query>")
	sc := bufio.NewScanner(os.Stdin)
	fmt.Fprint(os.Stderr, "feisu> ")
	withTrace := *trace
	withStats := *stats
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			return
		case line == `\trace`:
			withTrace = !withTrace
			fmt.Fprintf(os.Stderr, "trace output %s\n", onOff(withTrace))
		case line == `\stats`:
			withStats = !withStats
			fmt.Fprintf(os.Stderr, "stats output %s\n", onOff(withStats))
		case line == `\metrics`:
			fmt.Print(sys.Metrics().String())
		case line == `\top`:
			// Refresh heartbeats so the dashboard shows live load, not
			// the load at the last heartbeat interval.
			if err := sys.Heartbeat(); err != nil {
				fmt.Fprintf(os.Stderr, "heartbeat: %v\n", err)
			}
			fmt.Print(sys.ClusterHealth().Render())
		case line == `\watch`:
			fmt.Print(cluster.RenderProgress(sys.ActiveQueries()))
		case line == `\slowlog`:
			if *slowWall <= 0 && *slowSim <= 0 {
				fmt.Fprintln(os.Stderr, "slowlog disabled; start feisu with -slow or -slow-sim")
			} else {
				fmt.Printf("slow queries recorded: %d\n", sys.Traces().SlowTotal())
				fmt.Print(telemetry.RenderSlowlog(sys.Traces().Slow()))
			}
		case line == `\events`:
			rec := sys.Events()
			evs := rec.Events()
			if len(evs) > 40 {
				evs = evs[len(evs)-40:]
			}
			fmt.Printf("events recorded: %d, overwritten: %d (showing last %d)\n",
				rec.Total(), rec.Dropped(), len(evs))
			for _, e := range evs {
				fmt.Println(e.String())
			}
		case line == `\q` || line == `\quit`:
			return
		default:
			if err := run(sys, line, withStats, withTrace, exporter); err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
			}
		}
		fmt.Fprint(os.Stderr, "feisu> ")
	}
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func run(sys *feisu.System, sql string, withStats, withTrace bool, exporter *traceExporter) error {
	start := time.Now()
	var opts []feisu.QueryOption
	if withTrace || exporter != nil {
		opts = append(opts, feisu.WithTrace())
	}
	res, stats, err := sys.QueryStats(context.Background(), sql, opts...)
	if err != nil {
		return err
	}
	exporter.export(stats.QueryID)
	printResult(res)
	if withTrace && stats.Trace != nil {
		fmt.Print(stats.Trace.Render())
	}
	if withStats {
		fmt.Printf("-- %d rows in %s (sim %s); tasks=%d reused=%d backups=%d; scan: %+v\n",
			len(res.Rows), time.Since(start).Round(time.Millisecond),
			stats.SimTime.Round(time.Microsecond),
			stats.Tasks, stats.ReusedTasks, stats.BackupTasks, stats.Scan)
	}
	return nil
}

// traceExporter appends every finished query's trace to a file as one
// Jaeger-compatible JSON document per line (the -trace-export flag).
type traceExporter struct {
	sys *feisu.System
	w   io.Writer
}

func (e *traceExporter) export(queryID string) {
	if e == nil || queryID == "" {
		return
	}
	st, ok := e.sys.Traces().Get(queryID)
	if !ok {
		return
	}
	b, err := json.Marshal(tracepkg.ToJaeger(st))
	if err != nil {
		return
	}
	if _, err := e.w.Write(append(b, '\n')); err != nil {
		fmt.Fprintf(os.Stderr, "trace export: %v\n", err)
	}
}

func printResult(res *feisu.Result) {
	fmt.Println(strings.Join(res.Columns, "\t"))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			if v.T == feisu.String {
				cells[i] = v.S // raw, without SQL quoting
			} else {
				cells[i] = v.String()
			}
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "feisu: %v\n", err)
	os.Exit(1)
}
