package obs

import (
	"runtime"
	"time"
)

// Recorder is the nil-safe facade instrumented code calls. A nil *Recorder
// is the "telemetry off" state: every method returns immediately after one
// pointer test, so hot paths can call unconditionally.
//
// A Recorder couples a metric Registry (always present when the recorder is
// non-nil) with an optional event Journal.
//
// Every method is safe for concurrent use: metric lookups are serialized by
// the registry lock, counters and gauges update atomically, timers and the
// journal lock per operation. Parallel control-round workers (internal/par)
// and concurrent experiment variants may therefore share one recorder —
// though anything ordered (journal lines) must still be emitted from
// sequential code for runs to stay byte-identical.
type Recorder struct {
	reg     *Registry
	journal *Journal
}

// NewRecorder returns a recorder over reg, journaling to j (which may be
// nil for metrics-only recording). A nil reg allocates a fresh registry.
func NewRecorder(reg *Registry, j *Journal) *Recorder {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Recorder{reg: reg, journal: j}
}

// Enabled reports whether telemetry is on (the recorder is non-nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Count adds d to the named counter.
func (r *Recorder) Count(name string, d int64) {
	if r == nil {
		return
	}
	r.reg.Counter(name).Add(d)
}

// Gauge sets the named gauge to v.
func (r *Recorder) Gauge(name string, v int64) {
	if r == nil {
		return
	}
	r.reg.Gauge(name).Set(v)
}

// GaugeMax raises the named gauge to v if v exceeds it (high-water mark).
func (r *Recorder) GaugeMax(name string, v int64) {
	if r == nil {
		return
	}
	r.reg.Gauge(name).SetMax(v)
}

// Observe records one duration on the named timer.
func (r *Recorder) Observe(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.reg.Timer(name).Observe(d)
}

// noopStop is the shared stop function StartTimer hands out when telemetry
// is off, so disabled hot paths never allocate a closure.
var noopStop = func() {}

// StartTimer starts a host-clock measurement of the named timer and returns
// the function that stops it and records the elapsed duration. It is the one
// sanctioned wall-clock read in instrumented code: callers measure handler
// cost without touching the clock themselves, which keeps simulation
// packages free of time.Now under the determinism contract.
//
//ecolint:allow wallclock — telemetry measures real handler cost; it never feeds back into simulation state
func (r *Recorder) StartTimer(name string) (stop func()) {
	if r == nil {
		return noopStop
	}
	start := time.Now()
	return func() {
		r.reg.Timer(name).Observe(time.Since(start))
	}
}

// Emit writes one event to the journal, if one is attached. simTime is the
// virtual timestamp; fields holds event-specific key/values (may be nil).
func (r *Recorder) Emit(simTime time.Duration, kind string, fields map[string]any) {
	if r == nil || r.journal == nil {
		return
	}
	r.journal.Emit(simTime, kind, fields)
}

// Journaling reports whether Emit would write anywhere; callers building
// non-trivial field maps can skip the work when it would be dropped.
func (r *Recorder) Journaling() bool { return r != nil && r.journal != nil }

// SampleMemory reads the Go heap and updates the mem.heap_alloc_bytes gauge
// and the mem.heap_peak_bytes high-water mark. Call it at a coarse cadence
// (sample ticks, progress ticks); ReadMemStats stops the world briefly.
func (r *Recorder) SampleMemory() {
	if r == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.reg.Gauge("mem.heap_alloc_bytes").Set(int64(ms.HeapAlloc))
	r.reg.Gauge("mem.heap_peak_bytes").SetMax(int64(ms.HeapAlloc))
}

// Snapshot returns a snapshot of the registry (zero value when disabled).
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	return r.reg.Snapshot()
}
