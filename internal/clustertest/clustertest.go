// Package clustertest is a deterministic concurrency test harness for the
// admission-controlled cluster: it runs a seeded query workload once
// serially (the oracle) and once as N concurrent submissions against a
// slot-limited master over an injected clock, and reports per-query
// outcomes in a form tests can assert exactly — results bit-identical to
// serial execution, both priority classes served, and shed queries typed
// (ErrOverloaded) with no partial rows. The harness has no timing
// assumptions: concurrency is real (the tests run under -race) but every
// assertion is on values, never on wall-clock interleavings.
package clustertest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	feisu "repro"
	"repro/internal/workload"
)

// Options shapes one harness run.
type Options struct {
	// Seed drives query generation; same seed = same workload.
	Seed int64
	// Queries is the number of concurrent submissions (alternating
	// interactive/batch classes).
	Queries int
	// MaxConcurrent / QueueDepth / QueueDeadline configure the concurrent
	// system's admission controller. QueueDepth 0 uses the controller
	// default (2×MaxConcurrent) — size it >= Queries to forbid sheds.
	MaxConcurrent int
	QueueDepth    int
	QueueDeadline time.Duration
	// Cluster sizing (defaults: 4 leaves, 4 partitions, 512 rows/part).
	Leaves      int
	Partitions  int
	RowsPerPart int
}

// Outcome is one concurrent submission's result.
type Outcome struct {
	SQL   string
	Class feisu.Priority
	// Canon is the canonical result rendering ("" when the query errored).
	Canon string
	// Rows is the result row count (shed queries must leave it 0).
	Rows int
	Err  error
	// Shed reports errors.Is(Err, ErrOverloaded).
	Shed bool
	// QueueWait is the admission wait the master recorded.
	QueueWait time.Duration
	// Followed reports that an identical executing statement answered this
	// one: it was never admitted, because it never executed.
	Followed bool
}

// Result is a full harness run.
type Result struct {
	// Serial maps each workload query to its oracle rendering.
	Serial map[string]string
	// Outcomes holds the concurrent submissions in submission order.
	Outcomes []Outcome
	// AdmittedByClass / ShedByClass are the admission controller's per-class
	// counters after the run (indices: 0 interactive, 1 batch).
	AdmittedByClass [2]int64
	ShedByClass     [2]int64
	// MaxActive is the largest number of simultaneously registered queries
	// any live-progress poll observed during the concurrent phase.
	MaxActive int
	// ProgressSamples counts polls that saw at least one active query.
	ProgressSamples int
	// ProgressViolations lists invariant breaches observed in any
	// ActiveQueries snapshot (empty on a correct run).
	ProgressViolations []string
}

// Canon renders a result canonically: the column header plus every row's
// values (types.Value.String is bit-exact for all scalar types), row lines
// sorted so legal merge orderings compare equal.
func Canon(res *feisu.Result) string {
	if res == nil {
		return ""
	}
	lines := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		lines = append(lines, strings.Join(cells, "|"))
	}
	sort.Strings(lines)
	return strings.Join(res.Columns, "|") + "\n" + strings.Join(lines, "\n")
}

// Workload generates the seeded query list: aggregations and small scans
// over T1's core columns, every query deterministic for a given seed.
func Workload(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	aggs := []string{"COUNT(*)", "SUM(clicks)", "MIN(uid)", "MAX(dwell)"}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			out = append(out, fmt.Sprintf("SELECT %s FROM T1 WHERE clicks > %d",
				aggs[rng.Intn(len(aggs))], rng.Intn(8)))
		case 1:
			out = append(out, fmt.Sprintf("SELECT clicks, COUNT(*) AS n FROM T1 WHERE dwell <= %d GROUP BY clicks",
				60+rng.Intn(200)))
		default:
			out = append(out, fmt.Sprintf("SELECT uid, clicks FROM T1 WHERE uid < %d ORDER BY uid LIMIT %d",
				10500+rng.Intn(2000), 1+rng.Intn(16)))
		}
	}
	return out
}

// Clock is the harness's injected clock: strictly monotone, advancing a
// fixed step per reading, so queue-wait measurements depend on the number
// of clock readings, never on scheduler timing.
type Clock struct {
	mu sync.Mutex
	t  time.Time
}

// NewClock starts an injected clock at a fixed epoch.
func NewClock() *Clock {
	return &Clock{t: time.Unix(1_480_000_000, 0)}
}

// Now returns the next reading (advances 1µs per call).
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Microsecond)
	return c.t
}

// newSystem builds a harness deployment and loads the seeded T1 slice onto
// the in-memory store (no replica placement: scheduling is deterministic).
func newSystem(opts Options, admission bool) (*feisu.System, error) {
	cfg := feisu.Config{
		Leaves:            opts.Leaves,
		HeartbeatInterval: -1, // manual heartbeats: nothing ticks in the background
	}
	if admission {
		cfg.MaxConcurrentQueries = opts.MaxConcurrent
		cfg.MaxQueueDepth = opts.QueueDepth
		cfg.QueueWaitDeadline = opts.QueueDeadline
	}
	sys, err := feisu.New(cfg)
	if err != nil {
		return nil, err
	}
	spec := workload.T1Spec()
	spec.PathPrefix = "/mem/t1"
	spec.Partitions = opts.Partitions
	spec.RowsPerPart = opts.RowsPerPart
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
	return sys, nil
}

// Run executes the harness: serial oracle first, then opts.Queries
// concurrent submissions with alternating priority classes against an
// admission-controlled system on the injected clock.
func Run(opts Options) (*Result, error) {
	if opts.Queries <= 0 {
		opts.Queries = 64
	}
	if opts.Leaves <= 0 {
		opts.Leaves = 4
	}
	if opts.Partitions <= 0 {
		opts.Partitions = 4
	}
	if opts.RowsPerPart <= 0 {
		opts.RowsPerPart = 512
	}
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 4
	}
	queries := Workload(opts.Seed, opts.Queries)
	ctx := context.Background()
	out := &Result{Serial: make(map[string]string, len(queries))}

	// Serial oracle: no admission control, one query at a time.
	serialSys, err := newSystem(opts, false)
	if err != nil {
		return nil, err
	}
	for _, q := range queries {
		if _, seen := out.Serial[q]; seen {
			continue
		}
		res, err := serialSys.Query(ctx, q)
		if err != nil {
			serialSys.Close()
			return nil, fmt.Errorf("serial oracle %q: %w", q, err)
		}
		out.Serial[q] = Canon(res)
	}
	serialSys.Close()

	// Concurrent run under admission control on the injected clock.
	sys, err := newSystem(opts, true)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	clock := NewClock()
	sys.Master().Admission.SetNow(clock.Now)
	sys.Master().Manager.Now = clock.Now
	if err := sys.Heartbeat(); err != nil { // re-stamp liveness on the injected clock
		return nil, err
	}

	// Live-progress observer: while the concurrent submissions run, poll the
	// progress registry the same way /debug/queries does and check every
	// snapshot's invariants. Assertions are on values (states legal, task
	// counters within plan bounds), never on which queries happen to be
	// in flight at a poll.
	observerDone := make(chan struct{})
	observerStop := make(chan struct{})
	go func() {
		defer close(observerDone)
		for {
			select {
			case <-observerStop:
				return
			default:
			}
			active := sys.ActiveQueries()
			if len(active) > 0 {
				out.ProgressSamples++
				if len(active) > out.MaxActive {
					out.MaxActive = len(active)
				}
			}
			for _, p := range active {
				switch {
				case p.ID == "":
					out.ProgressViolations = append(out.ProgressViolations, "active query with empty ID")
				case p.State != "queued" && p.State != "running":
					out.ProgressViolations = append(out.ProgressViolations,
						fmt.Sprintf("%s: illegal state %q", p.ID, p.State))
				case p.State == "queued" && p.TasksPlanned != 0:
					out.ProgressViolations = append(out.ProgressViolations,
						fmt.Sprintf("%s: queued but %d tasks planned", p.ID, p.TasksPlanned))
				case p.TasksDispatched > p.TasksPlanned:
					out.ProgressViolations = append(out.ProgressViolations,
						fmt.Sprintf("%s: dispatched %d > planned %d", p.ID, p.TasksDispatched, p.TasksPlanned))
				case p.TasksDone > p.TasksPlanned:
					out.ProgressViolations = append(out.ProgressViolations,
						fmt.Sprintf("%s: done %d > planned %d", p.ID, p.TasksDone, p.TasksPlanned))
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	out.Outcomes = make([]Outcome, opts.Queries)
	var wg sync.WaitGroup
	for i := 0; i < opts.Queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			class := feisu.PriorityInteractive
			if i%2 == 1 {
				class = feisu.PriorityBatch
			}
			q := queries[i]
			res, stats, err := sys.QueryStats(ctx, q, feisu.WithPriority(class))
			o := Outcome{SQL: q, Class: class, Err: err, Shed: errors.Is(err, feisu.ErrOverloaded)}
			if res != nil {
				o.Canon = Canon(res)
				o.Rows = len(res.Rows)
			}
			if stats != nil {
				o.QueueWait = stats.QueueWait
				o.Followed = stats.Tasks > 0 && stats.ReusedTasks == stats.Tasks
			}
			out.Outcomes[i] = o
		}(i)
	}
	wg.Wait()
	close(observerStop)
	<-observerDone

	snap := sys.ClusterHealth().Admission
	out.AdmittedByClass = [2]int64{snap.Admitted[0], snap.Admitted[1]}
	out.ShedByClass = [2]int64{snap.Shed[0], snap.Shed[1]}
	return out, nil
}
