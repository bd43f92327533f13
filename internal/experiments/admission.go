package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	feisu "repro"
	"repro/internal/workload"
)

// AdmissionShort trims the admission run to a smoke-sized sweep (verify.sh).
var AdmissionShort bool

// admissionMaxConcurrent is the slot cap the "admission on" arm runs with;
// the offered-load sweep crosses it so the queue and the shed path are both
// exercised.
const admissionMaxConcurrent = 4

// Admission measures what the admission queue buys under overload: the same
// CPU-bound query stream offered at rising concurrency, once with admission
// control off (every submission executes immediately) and once with a
// 4-slot admission queue (per-class depth 8, queue-full sheds). The workload
// is the parscan regime — warm in-memory data, IndexNone — so concurrent
// queries genuinely contend for CPU and an unbounded fan-in degrades every
// query in flight. Reported per (mode, offered load): completed/shed counts,
// p50/p95/p99 latency of completed queries, and goodput (completed
// queries/s). The acceptance shape: with admission off, p99 grows roughly
// with the offered concurrency (no protection); with admission on, p99 stays
// bounded by the queue bound — excess load is shed with a typed retry-after
// error instead of being allowed to collapse the tail.
func Admission(scale Scale) (*Report, error) {
	loads := []int{2, 8, 32, 64}
	perClient := 10
	if AdmissionShort {
		loads = []int{2, 16}
		perClient = 4
		scale.Partitions = min(scale.Partitions, 2)
	}

	maxClients := loads[len(loads)-1]
	queries := parscanQueries(maxClients*perClient, 7321)

	type cell struct {
		mode          string
		load          int
		completed     int
		shed          int
		p50, p95, p99 time.Duration
		goodput       float64 // completed queries per second
	}
	var cells []cell

	for _, admission := range []bool{false, true} {
		mode := "off"
		cfg := feisu.Config{
			Leaves: scale.Leaves,
			Index:  feisu.IndexNone,
		}
		if admission {
			mode = "on"
			cfg.MaxConcurrentQueries = admissionMaxConcurrent
			cfg.MaxQueueDepth = 2 * admissionMaxConcurrent
		}
		for _, load := range loads {
			sys, err := feisu.New(cfg)
			if err != nil {
				return nil, err
			}
			spec := workload.T1Spec()
			spec.PathPrefix = "/warm/t1" // in-memory store: CPU-bound contention
			spec.Partitions = scale.Partitions
			spec.RowsPerPart = maxInt(scale.DataRowsPerPartition, 4096)
			spec.Fields = 10
			ctx := context.Background()
			meta, err := workload.Generate(ctx, sys.Router(), spec)
			if err == nil {
				err = sys.RegisterTable(ctx, meta)
			}
			if err != nil {
				sys.Close()
				return nil, err
			}

			var (
				mu        sync.Mutex
				latencies []time.Duration
				shed      int
			)
			start := time.Now()
			var wg sync.WaitGroup
			for c := 0; c < load; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						q := queries[(c*perClient+i)%len(queries)]
						qStart := time.Now()
						_, qErr := sys.Query(ctx, q)
						lat := time.Since(qStart)
						mu.Lock()
						if errors.Is(qErr, feisu.ErrOverloaded) {
							shed++
						} else if qErr == nil {
							latencies = append(latencies, lat)
						}
						mu.Unlock()
					}
				}(c)
			}
			wg.Wait()
			elapsed := time.Since(start)
			sys.Close()

			if len(latencies) == 0 {
				return nil, fmt.Errorf("admission: mode=%s load=%d completed no queries", mode, load)
			}
			sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
			q := func(p float64) time.Duration {
				idx := int(p * float64(len(latencies)-1))
				return latencies[idx]
			}
			cells = append(cells, cell{
				mode:      mode,
				load:      load,
				completed: len(latencies),
				shed:      shed,
				p50:       q(0.50),
				p95:       q(0.95),
				p99:       q(0.99),
				goodput:   float64(len(latencies)) / elapsed.Seconds(),
			})
		}
	}

	rep := &Report{
		ID:    "admission",
		Title: "Admission control: tail latency and goodput vs offered load",
		Headers: []string{"Admission", "Clients", "Completed", "Shed",
			"p50 (ms)", "p95 (ms)", "p99 (ms)", "Goodput (q/s)"},
	}
	ms := func(d time.Duration) string { return f2(float64(d) / float64(time.Millisecond)) }
	for _, c := range cells {
		rep.Rows = append(rep.Rows, []string{
			c.mode, d(int64(c.load)), d(int64(c.completed)), d(int64(c.shed)),
			ms(c.p50), ms(c.p95), ms(c.p99), f2(c.goodput),
		})
	}

	// The acceptance comparison: p99 at the highest offered load, off vs on.
	n := len(loads)
	offPeak, onPeak := cells[n-1], cells[2*n-1]
	offBase := cells[0]
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("slots=%d queue-depth=%d/class; shed queries return ErrOverloaded with a retry-after hint and never partial rows",
			admissionMaxConcurrent, 2*admissionMaxConcurrent),
		fmt.Sprintf("p99 at %d clients: %s with admission off vs %s with admission on (%.1fx)",
			offPeak.load, offPeak.p99.Round(time.Millisecond), onPeak.p99.Round(time.Millisecond),
			float64(offPeak.p99)/float64(onPeak.p99)),
		fmt.Sprintf("admission-off p99 grew %.1fx from %d to %d clients; with admission on the queue bound caps the wait a completed query can absorb",
			float64(offPeak.p99)/float64(offBase.p99), offBase.load, offPeak.load),
	)
	if !AdmissionShort && offPeak.p99 <= onPeak.p99 {
		return rep, fmt.Errorf("admission: p99 under overload with admission on (%s) is not below admission off (%s)",
			onPeak.p99, offPeak.p99)
	}
	return rep, nil
}
