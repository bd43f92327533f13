package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Priority classifies a query for admission control: interactive queries
// (dashboards, ad-hoc exploration) get a larger weighted-fair share of
// execution slots than batch queries (reports, backfills). The zero value is
// interactive so existing callers keep today's behaviour.
type Priority int

// Priority classes.
const (
	PriorityInteractive Priority = iota
	PriorityBatch
	numPriorities // sentinel: class-indexed arrays size themselves off it
)

// String names the class.
func (p Priority) String() string {
	if p == PriorityBatch {
		return "batch"
	}
	return "interactive"
}

// ErrOverloaded is returned when admission control sheds a query: the queue
// for its priority class is full, or it waited past its queue deadline.
// Errors wrapping it are of type *OverloadedError and carry a retry-after
// hint; recover with errors.As.
var ErrOverloaded = errors.New("cluster: overloaded")

// OverloadedError is the typed load-shedding error: it wraps ErrOverloaded
// and tells the client which class shed, how deep its queue was, and how
// long to back off before retrying (estimated from the recent query service
// rate).
type OverloadedError struct {
	// Class is the shed query's priority class.
	Class Priority
	// QueueDepth is the class queue's depth at shed time.
	QueueDepth int
	// RetryAfter estimates when a slot is likely to free up.
	RetryAfter time.Duration
	// Deadline marks a queue-time-deadline shed (the query was admitted to
	// the queue but waited too long) rather than a queue-full rejection.
	Deadline bool
}

// Error renders the shed reason and the retry hint.
func (e *OverloadedError) Error() string {
	why := "admission queue full"
	if e.Deadline {
		why = "queue-wait deadline exceeded"
	}
	return fmt.Sprintf("cluster: overloaded (%s, class=%s, queued=%d): retry after %s",
		why, e.Class, e.QueueDepth, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) true.
func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// AdmissionConfig shapes the master's admission controller.
type AdmissionConfig struct {
	// MaxConcurrent caps in-flight (admitted, executing) queries. <=0
	// disables admission control entirely.
	MaxConcurrent int
	// MaxQueueDepth bounds each priority class's wait queue; arrivals beyond
	// it are shed with *OverloadedError. 0 defaults to 2×MaxConcurrent.
	MaxQueueDepth int
	// QueueDeadline sheds a queued query that has not been granted a slot
	// within this wait; 0 means queries wait as long as their context
	// allows. QueryOptions.QueueDeadline overrides it per query.
	QueueDeadline time.Duration
	// Now is injectable for deterministic tests; nil uses time.Now.
	Now func() time.Time
}

// admitWaiter is one queued query.
type admitWaiter struct {
	pri   Priority
	ready chan struct{} // closed on grant
	// granted/abandoned are guarded by the controller lock and resolve the
	// race between a grant and a timeout/cancellation.
	granted   bool
	abandoned bool
	enqueued  time.Time
}

// AdmissionController is the master's bounded admission queue: at most
// MaxConcurrent queries execute at once, excess arrivals wait in per-class
// FIFO queues drained by smooth weighted round-robin, and arrivals beyond
// the queue bound (or past their queue deadline) are shed with a typed
// retry-after error instead of degrading every query in flight.
type AdmissionController struct {
	cfg AdmissionConfig

	mu      sync.Mutex
	running int
	queues  [numPriorities][]*admitWaiter
	// credit is the smooth-WRR state: each grant adds every backlogged
	// class's weight to its credit, picks the max, and charges it the total.
	credit [numPriorities]int
	// serviceEWMA smooths admitted queries' slot-hold times (ns) for the
	// retry-after hint; 0 until the first release.
	serviceEWMA float64

	// Admitted / Shed count per-class outcomes; queue depth and running are
	// exposed via Snapshot for gauges.
	Admitted [numPriorities]metrics.Counter
	Shed     [numPriorities]metrics.Counter
}

// admitWeights are the weighted-fair dequeue shares per class: four
// interactive dequeues per batch dequeue under sustained pressure, but a
// lone batch query never starves.
var admitWeights = [numPriorities]int{PriorityInteractive: 4, PriorityBatch: 1}

// serviceEWMAAlpha smooths slot-hold times for the retry-after hint.
const serviceEWMAAlpha = 0.3

// NewAdmissionController returns a controller, or nil when cfg disables
// admission (MaxConcurrent <= 0) — all methods on a nil controller admit
// immediately.
func NewAdmissionController(cfg AdmissionConfig) *AdmissionController {
	if cfg.MaxConcurrent <= 0 {
		return nil
	}
	if cfg.MaxQueueDepth <= 0 {
		cfg.MaxQueueDepth = 2 * cfg.MaxConcurrent
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &AdmissionController{cfg: cfg}
}

// Admit blocks until the query holds an execution slot, then returns the
// release function (must be called exactly once) and the time spent queued.
// It sheds with *OverloadedError when the class queue is full or the queue
// deadline (per-query override first, config default otherwise) expires,
// and returns ctx.Err() when the caller gives up first.
func (a *AdmissionController) Admit(ctx context.Context, pri Priority, queueDeadline time.Duration) (release func(), wait time.Duration, err error) {
	if a == nil {
		return func() {}, 0, nil
	}
	if pri < 0 || pri >= numPriorities {
		pri = PriorityInteractive
	}
	a.mu.Lock()
	// Invariant: a non-empty queue implies running == MaxConcurrent (grants
	// drain the queue before slots go idle), so a free slot admits directly.
	if a.running < a.cfg.MaxConcurrent {
		a.running++
		a.Admitted[pri].Inc()
		a.mu.Unlock()
		return a.releaseFunc(a.cfg.Now()), 0, nil
	}
	if len(a.queues[pri]) >= a.cfg.MaxQueueDepth {
		depth := len(a.queues[pri])
		hint := a.retryAfterLocked(depth)
		a.Shed[pri].Inc()
		a.mu.Unlock()
		return nil, 0, &OverloadedError{Class: pri, QueueDepth: depth, RetryAfter: hint}
	}
	w := &admitWaiter{pri: pri, ready: make(chan struct{}), enqueued: a.cfg.Now()}
	a.queues[pri] = append(a.queues[pri], w)
	a.mu.Unlock()

	if queueDeadline <= 0 {
		queueDeadline = a.cfg.QueueDeadline
	}
	var deadline <-chan time.Time
	if queueDeadline > 0 {
		t := time.NewTimer(queueDeadline)
		defer t.Stop()
		deadline = t.C
	}

	select {
	case <-w.ready:
		a.mu.Lock()
		wait = a.cfg.Now().Sub(w.enqueued)
		a.Admitted[pri].Inc()
		start := a.cfg.Now()
		a.mu.Unlock()
		return a.releaseFunc(start), wait, nil
	case <-deadline:
		if a.abandon(w) {
			a.mu.Lock()
			depth := len(a.queues[pri])
			hint := a.retryAfterLocked(depth)
			a.Shed[pri].Inc()
			a.mu.Unlock()
			return nil, 0, &OverloadedError{Class: pri, QueueDepth: depth, RetryAfter: hint, Deadline: true}
		}
		// Granted while timing out: take the slot after all.
		a.mu.Lock()
		wait = a.cfg.Now().Sub(w.enqueued)
		a.Admitted[pri].Inc()
		start := a.cfg.Now()
		a.mu.Unlock()
		return a.releaseFunc(start), wait, nil
	case <-ctx.Done():
		if a.abandon(w) {
			return nil, 0, ctx.Err()
		}
		// The grant won the race; the caller is leaving, so hand the slot on.
		a.releaseFunc(a.cfg.Now())()
		return nil, 0, ctx.Err()
	}
}

// abandon marks a waiter dead if it has not been granted yet; it reports
// whether the abandonment won (false means the waiter owns a slot).
func (a *AdmissionController) abandon(w *admitWaiter) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if w.granted {
		return false
	}
	w.abandoned = true
	// Remove eagerly so queue-depth gauges and queue-full sheds see truth.
	q := a.queues[w.pri]
	for i, qw := range q {
		if qw == w {
			a.queues[w.pri] = append(q[:i:i], q[i+1:]...)
			break
		}
	}
	return true
}

// releaseFunc returns the slot-release closure for an admitted query; start
// is when the slot was taken (feeds the service-time EWMA).
func (a *AdmissionController) releaseFunc(start time.Time) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			defer a.mu.Unlock()
			if held := float64(a.cfg.Now().Sub(start)); held > 0 {
				if a.serviceEWMA == 0 {
					a.serviceEWMA = held
				} else {
					a.serviceEWMA = (1-serviceEWMAAlpha)*a.serviceEWMA + serviceEWMAAlpha*held
				}
			}
			// Hand the slot to the next waiter (weighted-fair across the
			// backlogged classes); only an empty queue frees the slot.
			for {
				next := a.dequeueLocked()
				if next == nil {
					a.running--
					return
				}
				if next.abandoned {
					continue // lost a race with abandon; pick again
				}
				next.granted = true
				close(next.ready)
				return
			}
		})
	}
}

// dequeueLocked pops the next waiter by smooth weighted round-robin: every
// backlogged class earns its weight, the richest class is served and charged
// the round's total. Any class with a positive weight is served within a
// bounded number of rounds, so no class starves.
func (a *AdmissionController) dequeueLocked() *admitWaiter {
	total := 0
	best := -1
	for c := 0; c < int(numPriorities); c++ {
		if len(a.queues[c]) == 0 {
			continue
		}
		a.credit[c] += admitWeights[c]
		total += admitWeights[c]
		if best < 0 || a.credit[c] > a.credit[best] {
			best = c
		}
	}
	if best < 0 {
		// Nothing queued: reset credits so an idle period does not bank
		// arbitrarily large debt for one class.
		a.credit = [numPriorities]int{}
		return nil
	}
	a.credit[best] -= total
	w := a.queues[best][0]
	a.queues[best] = a.queues[best][1:]
	return w
}

// coldStartServiceEstimate stands in for the mean slot-hold time before the
// first query has completed (serviceEWMA == 0). Without it, a cold-start
// overload would compute a zero retry-after hint and shed clients into an
// immediate-retry stampede against an already-full queue.
const coldStartServiceEstimate = 10 * time.Millisecond

// minRetryAfter floors every hint so clients never busy-spin on a zero (or
// rounded-to-zero) suggestion.
const minRetryAfter = time.Millisecond

// retryAfterLocked estimates when a slot frees up: the recent mean slot-hold
// time (a cold-start estimate before any query has completed) scaled by how
// many queries are ahead of a fresh arrival, floored at minRetryAfter.
func (a *AdmissionController) retryAfterLocked(classDepth int) time.Duration {
	svc := time.Duration(a.serviceEWMA)
	if svc <= 0 {
		svc = coldStartServiceEstimate
	}
	ahead := classDepth + 1
	hint := svc * time.Duration(ahead) / time.Duration(a.cfg.MaxConcurrent)
	if hint < minRetryAfter {
		hint = minRetryAfter
	}
	return hint
}

// SetNow swaps the controller clock (deterministic test harnesses). Nil-safe.
func (a *AdmissionController) SetNow(now func() time.Time) {
	if a == nil || now == nil {
		return
	}
	a.mu.Lock()
	a.cfg.Now = now
	a.mu.Unlock()
}

// AdmissionSnapshot is the controller's observable state, rendered in \top
// and exported as gauges.
type AdmissionSnapshot struct {
	Enabled       bool
	Running       int
	MaxConcurrent int
	MaxQueueDepth int
	Queued        [numPriorities]int
	Admitted      [numPriorities]int64
	Shed          [numPriorities]int64
	// RetryAfter is the hint a shed query would receive right now.
	RetryAfter time.Duration
}

// Snapshot captures the controller state; a nil controller reports disabled.
func (a *AdmissionController) Snapshot() AdmissionSnapshot {
	if a == nil {
		return AdmissionSnapshot{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	s := AdmissionSnapshot{
		Enabled:       true,
		Running:       a.running,
		MaxConcurrent: a.cfg.MaxConcurrent,
		MaxQueueDepth: a.cfg.MaxQueueDepth,
	}
	for c := 0; c < int(numPriorities); c++ {
		s.Queued[c] = len(a.queues[c])
		s.Admitted[c] = a.Admitted[c].Value()
		s.Shed[c] = a.Shed[c].Value()
	}
	s.RetryAfter = a.retryAfterLocked(s.Queued[PriorityInteractive])
	return s
}

// QueueDepth returns one class's current queue length (gauge callbacks).
func (a *AdmissionController) QueueDepth(pri Priority) int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queues[pri])
}

// Running returns the number of queries holding execution slots.
func (a *AdmissionController) Running() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.running
}

// Render formats the admission state as the \top dashboard block.
func (s AdmissionSnapshot) Render() string {
	if !s.Enabled {
		return ""
	}
	return fmt.Sprintf(
		"admission: %d/%d running | queued int=%d batch=%d (cap %d/class) | admitted int=%d batch=%d | shed int=%d batch=%d | retry-after %s\n",
		s.Running, s.MaxConcurrent,
		s.Queued[PriorityInteractive], s.Queued[PriorityBatch], s.MaxQueueDepth,
		s.Admitted[PriorityInteractive], s.Admitted[PriorityBatch],
		s.Shed[PriorityInteractive], s.Shed[PriorityBatch],
		s.RetryAfter.Round(time.Millisecond))
}
