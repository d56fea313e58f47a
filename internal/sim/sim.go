// Package sim is a minimal discrete-event simulation engine: a virtual clock
// and a priority queue of timestamped events. Time is carried as
// time.Duration since the start of the simulation, which keeps arithmetic
// exact for the 5-minute trace epochs the experiments use.
//
// The queue is a ring of time buckets for the near future and a binary heap
// for the rest, under one order. An event due within about 131 us of the
// clock (a message delivery on a data-center fabric, or an event at the
// current time itself) is linked into the bucket of its 2.048-us slot, in
// dispatch order, and is popped from there without sifting; later events
// (a day's arrivals and departures, timers, periodic re-arms) wait in the
// heap. Run dispatches whichever head comes first, so the dispatch order is
// the one a single heap would give.
//
// The engine is deliberately single-threaded: handlers run one at a time in
// timestamp order (FIFO among equal timestamps), which makes runs reproducible
// and makes the state mutated by handlers race-free by construction.
// Parallelism, where profitable, lives *inside* a handler (e.g. fanning an
// invitation round across servers) and joins before the handler returns.
package sim

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/obs"
)

// Handler is a callback invoked when its event fires. The engine passes
// itself so handlers can schedule follow-up events.
type Handler func(e *Engine)

// event is one queued handler. The queue holds events by value, so
// scheduling one writes into the heap's backing array or a ring node instead
// of allocating.
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

// The ring's geometry. A slot spans 1<<slotShift ns (2.048 us), and the ring
// holds events whose slot is less than ringSlots (64) slots after the
// clock's, about 131 us ahead. ringSlots is the width of the occupancy mask.
const (
	slotShift = 11
	ringSlots = 64
)

// ringNode is one ring entry: a queued event and the pool index of the next
// entry in its bucket (-1 after the last). Free nodes chain through next.
type ringNode struct {
	ev   event
	next int32
}

// bucket is one slot's list of ring entries, head first in dispatch order,
// as pool indices. It is meaningful only while its occupancy bit is set.
type bucket struct{ head, tail int32 }

// Engine owns the virtual clock and the pending events.
type Engine struct {
	now time.Duration
	// An event whose slot (at>>slotShift) is within ringSlots-1 of the
	// clock's waits in the ring: bucket slot%ringSlots, in nodes. Every
	// other event waits in queue, a binary min-heap under event.before:
	// queue[0] is its earliest event, and each entry sorts no earlier than
	// its parent at (i-1)/2. The clock never passes a pending event, so the
	// ring's slots all lie in the window that starts at the clock's slot,
	// and each bucket holds one slot. Where an event waits decides only
	// what it costs to queue, never when it fires: Run takes the earlier of
	// the ring's and the heap's heads.
	queue    []event
	ring     [ringSlots]bucket
	occupied uint64 // bit b set while ring[b] holds an event
	nodes    []ringNode
	free     int32 // first free node, -1 when none
	ringLen  int
	seq      uint64
	stopped  bool
	// Processed counts events dispatched so far; useful for tests and stats.
	processed uint64

	// rec, when non-nil, receives engine telemetry: events dispatched, the
	// queue-depth high-water mark, and wall time per handler name. The
	// default nil recorder costs the dispatch loop one pointer test.
	rec *obs.Recorder
}

// New returns an engine with the clock at zero and no pending events.
func New() *Engine { return &Engine{free: -1} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// SetRecorder installs (or clears, with nil) the telemetry recorder. Metrics
// written: counter sim.events, gauge sim.queue_depth_max, gauge sim.now_ns,
// and one timer sim.handler.<name> per distinct handler name.
func (e *Engine) SetRecorder(r *obs.Recorder) { e.rec = r }

// Processed returns the number of events dispatched so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events waiting in the ring and the heap.
func (e *Engine) Pending() int { return len(e.queue) + e.ringLen }

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
	ev := event{at: at, seq: e.seq, fn: fn, name: name}
	if uint64(at>>slotShift-e.now>>slotShift) < ringSlots {
		e.link(ev)
		return
	}
	push(&e.queue, ev)
}

// link queues ev in its slot's bucket. ev's sequence number is the largest
// queued, so it goes after every entry due at or before it: normally at the
// tail. Otherwise the tail is due after ev and ends the walk for its place.
func (e *Engine) link(ev event) {
	i := e.free
	if i >= 0 {
		e.free = e.nodes[i].next
	} else {
		i = int32(len(e.nodes))
		e.nodes = append(e.nodes, ringNode{})
	}
	n := &e.nodes[i]
	n.ev, n.next = ev, -1
	e.ringLen++
	b := int(ev.at>>slotShift) & (ringSlots - 1)
	bk := &e.ring[b]
	switch {
	case e.occupied&(1<<b) == 0:
		e.occupied |= 1 << b
		bk.head, bk.tail = i, i
	case e.nodes[bk.tail].ev.at <= ev.at:
		e.nodes[bk.tail].next = i
		bk.tail = i
	default:
		p := &bk.head
		for e.nodes[*p].ev.at <= ev.at {
			p = &e.nodes[*p].next
		}
		n.next, *p = *p, i
	}
}

// first returns the bucket holding the ring's earliest event: the first
// occupied one from the clock's slot on. The ring must not be empty.
func (e *Engine) first() int {
	cur := int(e.now>>slotShift) & (ringSlots - 1)
	return (cur + bits.TrailingZeros64(bits.RotateLeft64(e.occupied, -cur))) & (ringSlots - 1)
}

// unlink removes and returns the head of occupied bucket b. The node is
// cleared before it goes back on the free list, so the pool keeps no
// handler or closure alive.
func (e *Engine) unlink(b int) event {
	bk := &e.ring[b]
	i := bk.head
	n := &e.nodes[i]
	ev := n.ev
	if bk.head = n.next; bk.head < 0 {
		e.occupied &^= 1 << b
	}
	*n = ringNode{next: e.free}
	e.free = i
	e.ringLen--
	return ev
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
	for !e.stopped {
		b := -1
		var head *event
		if e.occupied != 0 {
			b = e.first()
			head = &e.nodes[e.ring[b].head].ev
		}
		if len(e.queue) > 0 && (head == nil || e.queue[0].before(head)) {
			b, head = -1, &e.queue[0]
		}
		if head == nil {
			break
		}
		if horizon > 0 && head.at > horizon {
			e.now = horizon
			return
		}
		var next event
		if b >= 0 {
			next = e.unlink(b)
		} else {
			next = pop(&e.queue)
		}
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
