// Command bench is the repository's benchmark: it boots an in-process
// feisu.System, loads a seeded table, drives one named workload as a closed
// loop of fixed-size rounds, checks every answer and prints every metric by
// name and unit. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, the form BENCHMARK.json's contract
// fixes.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: scan_hot, scan_cold, shuffle_tcp or dash_ingest")
		seed    = flag.Uint64("seed", 1, "seed of the benchmark's generators (2 is the hold-out)")
		seconds = flag.Int("seconds", refSeconds, "measuring time the frozen round sizes are scaled to")
		traced  = flag.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.json")
		all     = flag.Bool("all", false, "run the four workloads in sequence")
		aa      = flag.Bool("aa", false, "A/A: run the suite as two interleaved sets and compare them")
		runs    = flag.Int("runs", 5, "runs per set with -aa")
		outDir  = flag.String("out", "bench/out", "directory for span files")
	)
	flag.Parse()
	if *seconds < 1 || *seconds > 60 || *traced < 0 || *traced > 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be 1..60, -trace 0 or 1, and there are no positional arguments")
		os.Exit(2)
	}
	switch {
	case *aa:
		os.Exit(runAA(*runs, *seed, *seconds))
	case *all:
		code := 0
		for _, w := range workloads {
			res, err := runOne(w, *seed, *seconds, *traced == 1, *outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			if !res.Correct {
				code = 1
			}
		}
		os.Exit(code)
	default:
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if _, err := runOne(w, *seed, *seconds, *traced == 1, *outDir); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
}

// runOne runs one workload in this process and prints its metrics: a table
// for people, then the result object as the last line.
func runOne(w *workload, seed uint64, seconds int, traced bool, outDir string) (*result, error) {
	fmt.Printf("# workload %s seed %d seconds %d trace %v clients %d ops_per_round %d nproc %d %s\n",
		w.name, seed, seconds, traced, w.clientCount(), w.opsFor(seconds), runtime.NumCPU(), runtime.Version())
	var (
		res *result
		err error
	)
	if traced {
		res, err = runTraced(w, seed, seconds, outDir)
	} else {
		res, err = runEndToEnd(w, seed, seconds)
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return res, nil
}
