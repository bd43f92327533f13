package main

// aa.go is the A/A check: the whole suite run as two interleaved sets of the
// same code. It measures how far two medians of identical code lie apart, so
// that the regression bounds can be held against the noise actually seen.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// runChild runs one workload in a fresh process of this same binary and
// returns the result object of its last output line.
func runChild(w *workload, seed uint64, seconds int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", w.name, err)
	}
	return &res, nil
}

// iqr is the inter-quartile range as a share of the median.
func iqr(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// runAA runs the suite runs times for each of two sets, A B A B …, and
// prints, per workload and end-to-end metric, both medians, their relative
// difference and each set's inter-quartile range as a share of its median.
// It returns 1 when a difference exceeds the metric's bound or a run was
// incorrect, else 0.
func runAA(runs int, seed uint64, seconds int) int {
	type key struct{ workload, metric string }
	vals := [2]map[key][]float64{{}, {}}
	for i := 0; i < runs; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				res, err := runChild(w, seed, seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed\n", w.name, res.Failed, res.Attempted)
					return 1
				}
				for name, mv := range res.Metrics {
					k := key{w.name, name}
					vals[set][k] = append(vals[set][k], mv.Value)
				}
			}
		}
	}

	fmt.Printf("A/A: two interleaved sets of %d runs, seed %d, %d s measured per run; nproc %d, %s, kernel %s\n\n",
		runs, seed, seconds, runtime.NumCPU(), runtime.Version(), kernel())
	fmt.Println("| workload | metric | median A | median B | difference | IQR A | IQR B | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	code := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			k := key{w.name, d.name}
			a, b := vals[0][k], vals[1][k]
			ma, mb := median(a), median(b)
			diff := (mb - ma) / ma
			if diff < 0 {
				diff = -diff
			}
			verdict := "ok"
			if diff > d.bound {
				verdict = "EXCEEDS"
				code = 1
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.2f %% | %.2f %% | %.2f %% | %.1f %% | %s |\n",
				w.name, d.name, ma, mb, 100*diff, 100*iqr(a), 100*iqr(b), 100*d.bound, verdict)
		}
	}
	return code
}
