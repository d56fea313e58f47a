// Package sim is a minimal discrete-event simulation engine: a virtual clock
// and a priority queue of timestamped events. Time is carried as
// time.Duration since the start of the simulation, which keeps arithmetic
// exact for the 5-minute trace epochs the experiments use.
//
// The queue is two heaps under one order. Events scheduled while no Run is
// dispatching (a day's arrivals, departures and first ticks, often
// thousands) wait in one; events that handlers schedule during Run
// (message deliveries, timers, periodic re-arms, mostly microseconds to
// minutes ahead) go to the other, which stays small. Run dispatches
// whichever head comes first, so a follow-up event sifts through a few
// near neighbours rather than through every queued arrival, and the
// dispatch order is the one a single heap would give.
//
// The engine is deliberately single-threaded: handlers run one at a time in
// timestamp order (FIFO among equal timestamps), which makes runs reproducible
// and makes the state mutated by handlers race-free by construction.
// Parallelism, where profitable, lives *inside* a handler (e.g. fanning an
// invitation round across servers) and joins before the handler returns.
package sim

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Handler is a callback invoked when its event fires. The engine passes
// itself so handlers can schedule follow-up events.
type Handler func(e *Engine)

// event is one queued handler. The queue holds events by value, so
// scheduling one writes into the heap's backing array instead of allocating.
type event struct {
	at   time.Duration
	seq  uint64 // tie-break: FIFO among equal timestamps
	fn   Handler
	name string
}

// before is the queue order: by timestamp, then by scheduling sequence.
// Sequence numbers are unique, so the order is strict and total: any correct
// min-heap pops events in exactly the same sequence.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine owns the virtual clock and the pending events.
type Engine struct {
	now time.Duration
	// queue holds the events scheduled while no Run is dispatching, and
	// soon those that handlers schedule while Run dispatches (running is
	// set). Each is a binary min-heap under event.before: q[0] is its
	// earliest event, and each entry sorts no earlier than its parent at
	// (i-1)/2. The heap an event waits in decides only what it costs to
	// queue, never when it fires: Run takes the earlier of the two heads.
	queue   []event
	soon    []event
	running bool
	seq     uint64
	stopped bool
	// Processed counts events dispatched so far; useful for tests and stats.
	processed uint64

	// rec, when non-nil, receives engine telemetry: events dispatched, the
	// queue-depth high-water mark, and wall time per handler name. The
	// default nil recorder costs the dispatch loop one pointer test.
	rec *obs.Recorder
}

// New returns an engine with the clock at zero and no pending events.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// SetRecorder installs (or clears, with nil) the telemetry recorder. Metrics
// written: counter sim.events, gauge sim.queue_depth_max, gauge sim.now_ns,
// and one timer sim.handler.<name> per distinct handler name.
func (e *Engine) SetRecorder(r *obs.Recorder) { e.rec = r }

// Processed returns the number of events dispatched so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events waiting in either heap.
func (e *Engine) Pending() int { return len(e.queue) + len(e.soon) }

// Schedule enqueues fn to run at absolute virtual time at. Scheduling in the
// past (before Now) is a programming error and panics.
func (e *Engine) Schedule(at time.Duration, name string, fn Handler) {
	if fn == nil {
		panic("sim: Schedule with nil handler")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v, before now %v", name, at, e.now))
	}
	e.seq++
	h := &e.queue
	if e.running {
		h = &e.soon
	}
	push(h, event{at: at, seq: e.seq, fn: fn, name: name})
}

// push adds ev to heap h, sifting it up from the end to its place.
func push(h *[]event, ev event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

// pop removes and returns the earliest event of the non-empty heap h: the
// last entry takes the root slot and sifts down. The vacated tail slot is
// cleared so the heap's spare capacity keeps no handler or closure alive.
func pop(h *[]event) event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = last
	return top
}

// After enqueues fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, name string, fn Handler) {
	if d < 0 {
		panic(fmt.Sprintf("sim: After with negative delay %v", d))
	}
	e.Schedule(e.now+d, name, fn)
}

// Every schedules fn to run now+first and then every period thereafter, until
// the engine stops or fn's returned cancel function is called.
func (e *Engine) Every(first, period time.Duration, name string, fn Handler) (cancel func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every with non-positive period %v", period))
	}
	cancelled := false
	var tick Handler
	tick = func(en *Engine) {
		if cancelled {
			return
		}
		fn(en)
		if !cancelled && !en.stopped {
			en.After(period, name, tick)
		}
	}
	e.After(first, name, tick)
	return func() { cancelled = true }
}

// Stop makes Run return after the currently executing handler (if any)
// finishes. Run does not discard the events still queued: Pending counts
// them and a later Run dispatches them. The one exception is an Every tick
// whose own handler calls Stop: it does not reschedule itself, so that
// periodic ends there.
func (e *Engine) Stop() { e.stopped = true }

// Run dispatches events in timestamp order until the queue is empty, the
// horizon is exceeded (events strictly after horizon remain unprocessed), or
// Stop is called. A non-positive horizon means "no horizon". The clock is
// left at the time of the last dispatched event, or at the horizon when the
// horizon cut the run short.
func (e *Engine) Run(horizon time.Duration) {
	e.stopped = false
	e.running = true
	defer func() { e.running = false }()
	for !e.stopped {
		q := &e.queue
		if len(e.soon) > 0 && (len(e.queue) == 0 || e.soon[0].before(&e.queue[0])) {
			q = &e.soon
		}
		if len(*q) == 0 {
			break
		}
		if horizon > 0 && (*q)[0].at > horizon {
			e.now = horizon
			return
		}
		next := pop(q)
		e.now = next.at
		e.processed++
		if e.rec == nil {
			next.fn(e)
			continue
		}
		e.rec.GaugeMax("sim.queue_depth_max", int64(e.Pending()+1))
		e.rec.Gauge("sim.now_ns", int64(e.now))
		stop := e.rec.StartTimer("sim.handler." + next.name)
		next.fn(e)
		stop()
		e.rec.Count("sim.events", 1)
	}
	if horizon > 0 && e.now < horizon && !e.stopped {
		e.now = horizon
	}
}
