// Package chaos is Feisu's deterministic fault-injection plane: the test
// scaffolding that turns the failure modes of a 4,000-node deployment —
// message loss, network partitions, slow or corrupting storage tiers, leaf
// crashes and stragglers (paper §I, §V) — into reproducible test inputs.
//
// Every fault decision is drawn from a rand stream derived from one seed,
// so a failure schedule can be replayed exactly by constructing a new Plane
// with the same seed and driving it with the same workload. Streams are
// keyed by decision *site* (one per transport link, one per storage extent
// and fault family, one for the lifecycle controller), so concurrent sites
// do not perturb each other's schedules: the per-site fault sequences are
// identical across runs even when goroutine interleavings differ.
//
// The Plane plugs into the rest of the system through three surfaces:
//
//   - transport: the Plane implements transport.Interceptor (message drop,
//     delay, duplication, and pairwise partitions);
//   - storage: WrapStore decorates a storage.Store with slow reads, read
//     errors and payload corruption (caught by colstore block checksums);
//   - cluster lifecycle: a Controller crashes/restarts and slows down
//     Targets (leaf servers) on a deterministic tick schedule.
//
// Fired faults are counted (for metrics export) and recorded in a bounded
// event log (Events) — the replayable failure schedule.
package chaos

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// maxEvents bounds the event log; later events are counted but not kept.
const maxEvents = 8192

// Config shapes a Plane. Zero-valued sections disable that fault family.
type Config struct {
	// Seed drives every fault decision; the same seed over the same
	// workload reproduces the same failure schedule.
	Seed int64
	// Transport configures message-level faults.
	Transport TransportChaos
	// Storage configures storage-read faults.
	Storage StorageChaos
	// Lifecycle configures the crash/restart/straggler controller.
	Lifecycle LifecycleChaos
}

// TransportChaos sets per-message fault probabilities.
type TransportChaos struct {
	// Drop is the probability a message is dropped (any class).
	Drop float64
	// DropControl is *additional* drop probability for Control-class
	// messages — heartbeat and dispatch loss.
	DropControl float64
	// Delay is the probability a message is delayed; the pause is uniform
	// in (0, MaxDelay].
	Delay    float64
	MaxDelay time.Duration
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
}

// Enabled reports whether any transport fault can fire.
func (t TransportChaos) Enabled() bool {
	return t.Drop > 0 || t.DropControl > 0 || (t.Delay > 0 && t.MaxDelay > 0) || t.Duplicate > 0
}

// StorageChaos sets per-read fault probabilities for wrapped stores.
type StorageChaos struct {
	// SlowRead is the probability a read pauses for SlowReadDelay.
	SlowRead      float64
	SlowReadDelay time.Duration
	// ReadErr is the probability a read fails with ErrInjectedRead.
	ReadErr float64
	// Corrupt is the probability a read returns flipped bytes (detected
	// downstream by colstore column checksums).
	Corrupt float64
}

// Enabled reports whether any storage fault can fire.
func (s StorageChaos) Enabled() bool {
	return (s.SlowRead > 0 && s.SlowReadDelay > 0) || s.ReadErr > 0 || s.Corrupt > 0
}

// LifecycleChaos sets the per-tick probabilities of the Controller.
type LifecycleChaos struct {
	// Kill is the per-tick probability of crashing one alive target.
	Kill float64
	// DownTicks is how many ticks a killed target stays down (default 2).
	DownTicks int
	// MaxDown caps concurrently-down targets (default 1); the controller
	// also never kills the last alive target.
	MaxDown int
	// Straggle is the per-tick probability of slowing one target down by
	// StraggleDelay per task for StraggleTicks ticks (default 2).
	Straggle      float64
	StraggleDelay time.Duration
	StraggleTicks int
	// Partition is the per-tick probability of a pairwise partition
	// between a target and a peer, healed after PartitionTicks (default 2).
	Partition      float64
	PartitionTicks int
	// TickInterval, when positive, makes feisu.System drive the controller
	// from a background goroutine; 0 leaves ticking to the caller
	// (deterministic tests tick manually).
	TickInterval time.Duration
}

// Enabled reports whether any lifecycle fault can fire.
func (l LifecycleChaos) Enabled() bool {
	return l.Kill > 0 || (l.Straggle > 0 && l.StraggleDelay > 0) || l.Partition > 0
}

// Default returns a moderate all-families configuration: enough chaos to
// exercise every recovery path while letting retries keep queries
// completing.
func Default(seed int64) *Config {
	return &Config{
		Seed: seed,
		Transport: TransportChaos{
			Drop:      0.02,
			Delay:     0.10,
			MaxDelay:  2 * time.Millisecond,
			Duplicate: 0.02,
		},
		Storage: StorageChaos{
			SlowRead:      0.05,
			SlowReadDelay: time.Millisecond,
			ReadErr:       0.01,
			Corrupt:       0.01,
		},
		Lifecycle: LifecycleChaos{
			Kill:           0.15,
			DownTicks:      2,
			MaxDown:        1,
			Straggle:       0.10,
			StraggleDelay:  3 * time.Millisecond,
			StraggleTicks:  2,
			Partition:      0.05,
			PartitionTicks: 1,
		},
	}
}

// Event is one fired fault in the replayable schedule.
type Event struct {
	// Site is the decision site, e.g. "transport/master->leaf0" or
	// "lifecycle".
	Site string
	// Seq is the per-site fault sequence number (1-based). Site+Seq
	// identifies an event independently of goroutine interleaving.
	Seq int
	// Kind names the fault: drop, delay, dup, partition, slowread,
	// readerr, corrupt, kill, restart, straggle, heal.
	Kind string
	// Detail carries the fault target (node, path, pair).
	Detail string
}

// Plane is one seeded fault-injection plane.
type Plane struct {
	cfg Config

	mu      sync.Mutex
	streams map[string]*stream
	events  []Event
	lost    int // events beyond maxEvents
	parts   map[[2]string]bool
	sink    func(Event)

	// Fired-fault counters, exported as feisu_chaos_faults_total{kind=...}.
	Drops       metrics.Counter
	Delays      metrics.Counter
	Dups        metrics.Counter
	Partitions  metrics.Counter // calls blocked by an active partition
	SlowReads   metrics.Counter
	ReadErrs    metrics.Counter
	Corruptions metrics.Counter
	Kills       metrics.Counter
	Restarts    metrics.Counter
	Straggles   metrics.Counter
}

// stream is one decision site's private rand source.
type stream struct {
	mu  sync.Mutex
	rng *rand.Rand
	seq int
}

// splitmix is the streams' rand.Source64: SplitMix64, eight bytes of state
// where math/rand's own source is ~5 KB, so that a stream per storage
// extent stays affordable.
type splitmix struct{ x uint64 }

func (s *splitmix) Uint64() uint64 {
	s.x += 0x9E3779B97F4A7C15
	z := s.x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
func (s *splitmix) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix) Seed(seed int64) { s.x = uint64(seed) }

// New builds a Plane from the config.
func New(cfg Config) *Plane {
	return &Plane{
		cfg:     cfg,
		streams: make(map[string]*stream),
		parts:   make(map[[2]string]bool),
	}
}

// Seed returns the plane's seed (for logging failed runs).
func (p *Plane) Seed() int64 { return p.cfg.Seed }

// Config returns the plane's configuration.
func (p *Plane) Config() Config { return p.cfg }

// site returns the stream for a decision site, creating it on first use.
// The stream's source mixes the plane seed with a hash of the site name so
// sites are independent but individually reproducible.
func (p *Plane) site(name string) *stream {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.streams[name]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(name))
		s = &stream{rng: rand.New(&splitmix{h.Sum64() ^ (uint64(p.cfg.Seed) * 0x9E3779B97F4A7C15)})}
		p.streams[name] = s
	}
	return s
}

// SetSink installs a callback invoked with every fired fault — the bridge
// that mirrors the chaos schedule into the cluster flight recorder. Install
// it before faults start firing; the callback runs outside the plane's lock
// and must be safe for concurrent use.
func (p *Plane) SetSink(fn func(Event)) {
	p.mu.Lock()
	p.sink = fn
	p.mu.Unlock()
}

// record appends a fired fault to the event log and returns its per-site
// sequence number.
func (p *Plane) record(site, kind, detail string, seq int) {
	ev := Event{Site: site, Seq: seq, Kind: kind, Detail: detail}
	p.mu.Lock()
	if len(p.events) < maxEvents {
		p.events = append(p.events, ev)
	} else {
		p.lost++
	}
	sink := p.sink
	p.mu.Unlock()
	if sink != nil {
		sink(ev)
	}
}

// note records a non-probabilistic event (restart, heal) on the site's
// sequence without consuming randomness.
func (p *Plane) note(site, kind, detail string) {
	s := p.site(site)
	s.mu.Lock()
	s.seq++
	seq := s.seq
	s.mu.Unlock()
	p.record(site, kind, detail, seq)
}

// decide draws one fault decision at the site; a fired fault is logged
// under the given kind and detail.
func (p *Plane) decide(site string, prob float64, kind, detail string) bool {
	if prob <= 0 {
		return false
	}
	s := p.site(site)
	s.mu.Lock()
	fired := s.rng.Float64() < prob
	var seq int
	if fired {
		s.seq++
		seq = s.seq
	}
	s.mu.Unlock()
	if fired {
		p.record(site, kind, detail, seq)
	}
	return fired
}

// duration draws a uniform duration in (0, max] from the site's stream.
func (p *Plane) duration(site string, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	s := p.site(site)
	s.mu.Lock()
	d := time.Duration(s.rng.Int63n(int64(max))) + 1
	s.mu.Unlock()
	return d
}

// intn draws from [0, n) on the site's stream.
func (p *Plane) intn(site string, n int) int {
	s := p.site(site)
	s.mu.Lock()
	v := s.rng.Intn(n)
	s.mu.Unlock()
	return v
}

// Events returns the fired-fault schedule recorded so far, sorted by site
// then per-site sequence — a canonical order that is stable across
// goroutine interleavings, so two runs of the same seed and workload can be
// compared directly.
func (p *Plane) Events() []Event {
	p.mu.Lock()
	out := append([]Event(nil), p.events...)
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// EventsLost reports how many fired faults overflowed the bounded log.
func (p *Plane) EventsLost() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lost
}

// FaultCount sums every fired-fault counter.
func (p *Plane) FaultCount() int64 {
	total := int64(0)
	for _, c := range []*metrics.Counter{
		&p.Drops, &p.Delays, &p.Dups, &p.Partitions, &p.SlowReads,
		&p.ReadErrs, &p.Corruptions, &p.Kills, &p.Restarts, &p.Straggles,
	} {
		total += c.Value()
	}
	return total
}

// RegisterMetrics exports the fired-fault counters as the labeled family
// feisu_chaos_faults_total{kind=...}.
func (p *Plane) RegisterMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for kind, c := range map[string]*metrics.Counter{
		"transport_drop":      &p.Drops,
		"transport_delay":     &p.Delays,
		"transport_duplicate": &p.Dups,
		"partition_blocked":   &p.Partitions,
		"storage_slow_read":   &p.SlowReads,
		"storage_read_error":  &p.ReadErrs,
		"storage_corruption":  &p.Corruptions,
		"leaf_kill":           &p.Kills,
		"leaf_restart":        &p.Restarts,
		"leaf_straggle":       &p.Straggles,
	} {
		reg.RegisterCounterWith("feisu_chaos_faults_total", c, metrics.L("kind", kind))
	}
}

// pairKey canonicalizes an unordered node pair.
func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Partition blocks all traffic between a and b (both directions) until
// Heal.
func (p *Plane) Partition(a, b string) {
	p.mu.Lock()
	p.parts[pairKey(a, b)] = true
	p.mu.Unlock()
}

// Heal removes the partition between a and b.
func (p *Plane) Heal(a, b string) {
	p.mu.Lock()
	delete(p.parts, pairKey(a, b))
	p.mu.Unlock()
}

// HealAll removes every partition.
func (p *Plane) HealAll() {
	p.mu.Lock()
	p.parts = make(map[[2]string]bool)
	p.mu.Unlock()
}

// Partitioned reports whether a and b are currently partitioned.
func (p *Plane) Partitioned(a, b string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.parts[pairKey(a, b)]
}
