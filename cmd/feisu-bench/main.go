// Command feisu-bench regenerates every table and figure of the paper's
// evaluation (§VI) plus the DESIGN.md ablation studies.
//
// Usage:
//
//	feisu-bench                  # run everything at the default scale
//	feisu-bench -exp fig9a       # one experiment
//	feisu-bench -scale big       # closer to the paper's operating point
//	feisu-bench -list            # list experiment ids
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

var registry = []struct {
	id   string
	desc string
	run  func(experiments.Scale) (*experiments.Report, error)
}{
	{"table1", "dataset inventory (paper Table I)", experiments.Table1},
	{"fig4", "data locality vs time span", experiments.Fig4},
	{"fig5", "query similarity vs time span", experiments.Fig5},
	{"fig8", "keyword frequency", experiments.Fig8},
	{"fig9a", "scan performance with/without SmartIndex", experiments.Fig9a},
	{"fig9b", "SmartIndex vs B-tree", experiments.Fig9b},
	{"fig10", "federated scan throughput per server", experiments.Fig10},
	{"fig11", "SmartIndex memory sensitivity", experiments.Fig11},
	{"fig12", "scalability with node count", experiments.Fig12},
	{"ablations", "design-choice ablations (DESIGN.md §5)", experiments.Ablations},
	{"trace", "per-stage execution profile from query traces", experiments.TraceProfile},
	{"fleet", "fleet telemetry: latency quantiles while SmartIndex warms", experiments.Fleet},
	{"chaos", "correctness under seeded fault injection (retries/hedges/partials)", experiments.Chaos},
	{"parscan", "intra-task parallel scan speedup at 1/2/4/8 workers", experiments.Parscan},
	{"admission", "admission control: tail latency and goodput vs offered load", experiments.Admission},
	{"rescache", "semantic result cache: repeated-shape stream, cache off vs on", experiments.Rescache},
	{"flightrec", "flight recorder overhead: identical stream, recorder off vs on", experiments.Flightrec},
	{"shuffle", "general joins: broadcast vs hash repartition across build-side scales", experiments.Shuffle},
	{"wire", "scale-out over real TCP sockets vs the simulated fabric", experiments.Wire},
}

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	scaleName := flag.String("scale", "default", "small | default | big")
	list := flag.Bool("list", false, "list experiment ids and exit")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/slowlog here during -exp fleet (e.g. 127.0.0.1:9090)")
	seed := flag.Int64("seed", 1, "chaos fault-schedule seed for -exp chaos (same seed = same schedule)")
	short := flag.Bool("short", false, "trim -exp chaos/parscan to a smoke-sized query stream")
	jsonPath := flag.String("json", "", "also write the run's reports to this file as JSON")
	flag.Parse()
	experiments.TelemetryAddr = *metricsAddr
	experiments.ChaosSeed = *seed
	experiments.ChaosShort = *short
	experiments.ParscanShort = *short
	experiments.AdmissionShort = *short
	experiments.RescacheShort = *short
	experiments.FlightrecShort = *short
	experiments.ShuffleShort = *short
	experiments.WireShort = *short

	if *list {
		for _, e := range registry {
			fmt.Printf("%-10s %s\n", e.id, e.desc)
		}
		return
	}

	var scale experiments.Scale
	switch *scaleName {
	case "small":
		scale = experiments.SmallScale()
	case "default":
		scale = experiments.DefaultScale()
	case "big":
		scale = experiments.BigScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (small|default|big)\n", *scaleName)
		os.Exit(2)
	}

	var reports []*experiments.Report
	ran := 0
	for _, e := range registry {
		if *exp != "all" && *exp != e.id {
			continue
		}
		ran++
		start := time.Now()
		rep, err := e.run(scale)
		if err != nil {
			if rep != nil {
				fmt.Println(rep.String())
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println(rep.String())
		fmt.Printf("(%s took %s)\n\n", e.id, time.Since(start).Round(time.Millisecond))
		reports = append(reports, rep)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal reports: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}
}
