package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	feisu "repro"
)

// Ablations runs the design-choice studies called out in DESIGN.md §5:
// bitmap compression, negation derivation, locality-aware scheduling, and
// identical-statement result reuse.
func Ablations(scale Scale) (*Report, error) {
	rep := &Report{
		ID:      "ablations",
		Title:   "Design-choice ablations",
		Headers: []string{"Study", "Variant", "Metric", "Value"},
	}

	// 1. Index compression: memory footprint for the same warm state.
	for _, compress := range []bool{false, true} {
		sys, err := buildSystem(scale, func(c *feisu.Config) { c.IndexCompress = compress })
		if err != nil {
			return nil, err
		}
		queries := scanQueries(scale.Queries/2, 5)
		if _, err := runStream(sys, queries, scale.Window); err != nil {
			sys.Close()
			return nil, err
		}
		st := sys.IndexStats()
		sys.Close()
		label := "dense"
		if compress {
			label = "compressed"
		}
		rep.Rows = append(rep.Rows, []string{"index compression", label, "index bytes", d(st.Bytes)})
	}

	// 2. Negation derivation (Fig. 7 rewriting): derived hits vs misses on
	// a complement-heavy stream.
	for _, disable := range []bool{false, true} {
		sys, err := buildSystem(scale, func(c *feisu.Config) { c.IndexNoDerivation = disable })
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		pairs := []string{
			"SELECT COUNT(*) FROM T1 WHERE clicks > 5",
			"SELECT COUNT(*) FROM T1 WHERE clicks <= 5",
			"SELECT COUNT(*) FROM T1 WHERE pos >= 3",
			"SELECT COUNT(*) FROM T1 WHERE pos < 3",
		}
		for _, q := range pairs {
			if _, err := sys.Query(ctx, q); err != nil {
				sys.Close()
				return nil, err
			}
		}
		st := sys.IndexStats()
		sys.Close()
		label := "on"
		if disable {
			label = "off"
		}
		rep.Rows = append(rep.Rows, []string{"negation derivation", label, "derived hits",
			fmt.Sprintf("%d (misses %d)", st.DerivedHits, st.Misses)})
	}

	// 2b. TTL and history pinning: with an instant TTL, nothing survives
	// between queries and every run misses; history personalization pins
	// repeated predicates past the TTL (paper §IV-C2 + §III-C).
	for _, personalize := range []int{0, 2} {
		sys, err := buildSystem(scale, func(c *feisu.Config) {
			c.IndexTTL = time.Nanosecond
			c.PersonalizeThreshold = personalize
		})
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		const q = "SELECT COUNT(*) FROM T1 WHERE clicks > 5"
		for i := 0; i < 4; i++ {
			if _, err := sys.Query(ctx, q); err != nil {
				sys.Close()
				return nil, err
			}
		}
		st := sys.IndexStats()
		sys.Close()
		label := "instant TTL"
		if personalize > 0 {
			label = "instant TTL + pinning"
		}
		rep.Rows = append(rep.Rows, []string{"TTL vs pinning", label, "hits/misses",
			fmt.Sprintf("%d/%d", st.Hits+st.DerivedHits, st.Misses)})
	}

	// 3. Locality-aware scheduling: total simulated time over a spread of
	// no-index scans. Without locality, tasks land on arbitrary leaves and
	// every byte they read crosses the network from a replica holder.
	for _, off := range []bool{false, true} {
		sys, err := buildSystem(scale, func(c *feisu.Config) {
			c.LocalityOff = off
			c.Index = feisu.IndexNone
		})
		if err != nil {
			return nil, err
		}
		var total time.Duration
		for i := 0; i < 8; i++ {
			q := fmt.Sprintf("SELECT COUNT(*) FROM T1 WHERE dwell < %d", 100+10*i)
			_, stats, err := sys.QueryStats(context.Background(), q)
			if err != nil {
				sys.Close()
				return nil, err
			}
			total += stats.SimTime
		}
		sys.Close()
		label := "on"
		if off {
			label = "off"
		}
		rep.Rows = append(rep.Rows, []string{"locality scheduling", label, "sim total (8 scans)", total.String()})
	}

	// 4. Result reuse: leaf work for concurrent identical statements. A
	// statement that arrives while an identical one executes follows it and
	// executes nothing, so "executed" falls below "planned" by however many
	// arrived in time.
	sys, err := buildSystem(scale, nil)
	if err != nil {
		return nil, err
	}
	const q = "SELECT COUNT(*) FROM T1 WHERE uid < 50000"
	var planned, executed atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, stats, err := sys.QueryStats(context.Background(), q)
			if err != nil {
				errs <- err
				return
			}
			planned.Add(int64(stats.Tasks))
			executed.Add(int64(stats.Tasks - stats.ReusedTasks))
		}()
	}
	wg.Wait()
	sys.Close()
	close(errs)
	for err := range errs {
		return nil, err
	}
	const variant = "8 concurrent identical statements"
	rep.Rows = append(rep.Rows,
		[]string{"result reuse", variant, "leaf tasks planned", d(planned.Load())},
		[]string{"result reuse", variant, "leaf tasks executed", d(executed.Load())})

	return rep, nil
}
