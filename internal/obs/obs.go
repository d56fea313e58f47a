// Package obs is the run-telemetry layer: a zero-dependency registry of
// counters, gauges and timers, a nil-safe Recorder facade the hot paths call,
// a per-run JSONL event journal, a run manifest (config, seed, wall/CPU time,
// peak heap) written next to the figure CSVs, and a wall-clock progress
// reporter.
//
// Everything is designed around one constraint: the simulator's hot path must
// pay ~nothing when telemetry is off. All instrumentation goes through a
// *Recorder whose methods are safe on a nil receiver, so the disabled case is
// a single pointer test. Counters and gauges are lock-free atomics so a
// progress goroutine can read them while the (single-threaded) simulation
// mutates them.
package obs

import (
	"encoding/json"
	"sync"        //ecolint:allow goroutine — metric registry is shared infrastructure; readers (progress, par workers) race writers by design
	"sync/atomic" //ecolint:allow goroutine — lock-free counters/gauges are the telemetry-off-costs-nothing contract
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetMax stores v only if it exceeds the current value (a high-water mark).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Timer accumulates wall-time observations (count, total, max).
type Timer struct {
	mu    sync.Mutex
	count int64
	total time.Duration
	max   time.Duration
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	t.mu.Lock()
	t.count++
	t.total += d
	if d > t.max {
		t.max = d
	}
	t.mu.Unlock()
}

// TimerStats is the exported view of a Timer.
type TimerStats struct {
	Count   int64   `json:"count"`
	TotalNS int64   `json:"total_ns"`
	MaxNS   int64   `json:"max_ns"`
	MeanNS  float64 `json:"mean_ns"`
}

func (t *Timer) stats() TimerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TimerStats{Count: t.count, TotalNS: int64(t.total), MaxNS: int64(t.max)}
	if t.count > 0 {
		s.MeanNS = float64(t.total) / float64(t.count)
	}
	return s
}

// Registry holds named metrics. Metric lookup takes the registry lock;
// callers on hot paths should capture the returned metric once and update it
// lock-free, or go through Recorder, which does the lookup per call (fine at
// simulation-event granularity).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Snapshot is a point-in-time copy of every metric, with deterministic
// (sorted) JSON encoding so snapshots diff cleanly across runs.
type Snapshot struct {
	Counters map[string]int64      `json:"counters,omitempty"`
	Gauges   map[string]int64      `json:"gauges,omitempty"`
	Timers   map[string]TimerStats `json:"timers,omitempty"`
}

// Snapshot copies every metric out of the registry. Safe to call while the
// run is still mutating metrics (values are read atomically, metric by
// metric; the snapshot is not a cross-metric consistent cut).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Value()
		}
	}
	if len(r.timers) > 0 {
		s.Timers = make(map[string]TimerStats, len(r.timers))
		for n, t := range r.timers {
			s.Timers[n] = t.stats()
		}
	}
	return s
}

// MarshalJSON is deterministic: encoding/json sorts map keys, so two
// snapshots of identical state produce identical bytes.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	type alias Snapshot // avoid recursion
	return json.Marshal(alias(s))
}
