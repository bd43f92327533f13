// Command feisu-figures regenerates the tables and figures of the paper's
// evaluation (§VI) plus the DESIGN.md ablation studies. Simulated time:
// shapes of the paper's §VI only; speed is `bash bench/run.sh`.
//
// Usage:
//
//	feisu-figures                  # run everything at the default scale
//	feisu-figures -exp fig9a       # one experiment
//	feisu-figures -scale big       # closer to the paper's operating point
//	feisu-figures -list            # list experiment ids
package main

import (
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
}

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	scaleName := flag.String("scale", "default", "small | default | big")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		fmt.Println("# simulated time: shapes of the paper's §VI only; speed is `bash bench/run.sh`")
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

	ran := 0
	for _, e := range registry {
		if *exp != "all" && *exp != e.id {
			continue
		}
		ran++
		start := time.Now()
		rep, err := e.run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println(rep.String())
		fmt.Printf("(%s took %s)\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
}
