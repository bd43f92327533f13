package clustertest

import (
	"errors"
	"testing"
	"time"

	feisu "repro"
)

// TestConcurrentQueriesBitIdenticalToSerial is the harness's acceptance
// run: 64 seeded concurrent queries (alternating interactive/batch) against
// a 4-slot admission queue deep enough that nothing sheds. Every result
// must render bit-identically to the serial oracle and both classes must be
// admitted (no starvation).
func TestConcurrentQueriesBitIdenticalToSerial(t *testing.T) {
	const n = 64
	res, err := Run(Options{
		Seed:          42,
		Queries:       n,
		MaxConcurrent: 4,
		QueueDepth:    n, // nothing sheds: every query must complete
	})
	if err != nil {
		t.Fatal(err)
	}
	followed := int64(0)
	for i, o := range res.Outcomes {
		if o.Err != nil {
			t.Fatalf("query %d (%q, class=%s) failed: %v", i, o.SQL, o.Class, o.Err)
		}
		if o.Followed {
			followed++
		}
		if want := res.Serial[o.SQL]; o.Canon != want {
			t.Errorf("query %d (%q) diverged from serial execution:\nconcurrent:\n%s\nserial:\n%s",
				i, o.SQL, o.Canon, want)
		}
	}
	if res.AdmittedByClass[0] == 0 || res.AdmittedByClass[1] == 0 {
		t.Errorf("a priority class starved: admitted=%v", res.AdmittedByClass)
	}
	if res.ShedByClass[0] != 0 || res.ShedByClass[1] != 0 {
		t.Errorf("queue depth %d must not shed %d queries: shed=%v", n, n, res.ShedByClass)
	}
	// A statement either executes (and is admitted) or follows an identical
	// executing one, which takes no slot.
	if got := res.AdmittedByClass[0] + res.AdmittedByClass[1]; got+followed != n {
		t.Errorf("admitted %d + followed %d queries, want %d", got, followed, n)
	}
}

// TestShedQueriesTypedAndRowless floods a 1-slot, depth-1 controller so
// most submissions shed, and asserts the contract: a shed query returns an
// error matching ErrOverloaded (with an *OverloadedError carrying a
// retry-after hint) and never any rows; every completed query still matches
// the serial oracle bit-for-bit.
func TestShedQueriesTypedAndRowless(t *testing.T) {
	res, err := Run(Options{
		Seed:          7,
		Queries:       32,
		MaxConcurrent: 1,
		QueueDepth:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	shed, completed := 0, 0
	for i, o := range res.Outcomes {
		switch {
		case o.Err == nil:
			completed++
			if want := res.Serial[o.SQL]; o.Canon != want {
				t.Errorf("completed query %d (%q) diverged from serial:\n%s\nwant:\n%s", i, o.SQL, o.Canon, want)
			}
		case o.Shed:
			shed++
			if o.Rows != 0 || o.Canon != "" {
				t.Errorf("shed query %d returned partial rows: %d rows", i, o.Rows)
			}
			var oe *feisu.OverloadedError
			if !errors.As(o.Err, &oe) {
				t.Errorf("shed query %d error is not *OverloadedError: %v", i, o.Err)
			} else if oe.RetryAfter <= 0 {
				t.Errorf("shed query %d carries no retry-after hint: %+v", i, oe)
			}
		default:
			t.Errorf("query %d failed with a non-admission error: %v", i, o.Err)
		}
	}
	if completed == 0 {
		t.Error("no queries completed")
	}
	if shed == 0 {
		t.Error("1-slot/depth-1 queue under 32 concurrent queries should shed")
	}
	if got := res.ShedByClass[0] + res.ShedByClass[1]; got != int64(shed) {
		t.Errorf("controller counted %d sheds, harness observed %d", got, shed)
	}
}

// TestLiveProgressObservedDuringConcurrency exercises the live progress
// registry under real concurrency: while 64 queries contend for 4 slots,
// the harness's observer polls ActiveQueries (the \watch / /debug/queries
// surface) and every snapshot must satisfy the registry's invariants —
// legal states, queued queries not yet planned, task counters within plan
// bounds. Whether a poll lands while >=2 queries are in flight is a timing
// accident, so that part retries the whole run a few times; the invariant
// check is enforced on every attempt.
func TestLiveProgressObservedDuringConcurrency(t *testing.T) {
	for attempt := 1; ; attempt++ {
		res, err := Run(Options{
			Seed:          23,
			Queries:       64,
			MaxConcurrent: 4,
			QueueDepth:    64,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.ProgressViolations) > 0 {
			t.Fatalf("progress snapshots violated invariants: %v", res.ProgressViolations)
		}
		if res.ProgressSamples > 0 && res.MaxActive >= 2 {
			return
		}
		if attempt == 5 {
			t.Fatalf("observer never caught concurrent queries in %d runs (samples=%d, maxActive=%d)",
				attempt, res.ProgressSamples, res.MaxActive)
		}
	}
}

// TestInjectedClockMeasuresQueueWait checks the clock injection path: with
// the harness clock installed, a queued query's recorded wait is expressed
// in the injected clock's microsecond ticks, not wall time.
func TestInjectedClockMeasuresQueueWait(t *testing.T) {
	res, err := Run(Options{
		Seed:          11,
		Queries:       16,
		MaxConcurrent: 1,
		QueueDepth:    16,
	})
	if err != nil {
		t.Fatal(err)
	}
	queued := 0
	for i, o := range res.Outcomes {
		if o.Err != nil {
			t.Fatalf("query %d: %v", i, o.Err)
		}
		if o.QueueWait > 0 {
			queued++
			// The injected clock advances 1µs per reading; a recorded wait
			// is a small multiple of that, never a wall-clock-sized value.
			if o.QueueWait > time.Millisecond {
				t.Errorf("query %d wait %v is not on the injected clock", i, o.QueueWait)
			}
		}
	}
	if queued == 0 {
		t.Error("16 concurrent queries against 1 slot: some query should have measured a queue wait")
	}
}
