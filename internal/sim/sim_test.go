package sim

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

func TestEventsFireInTimestampOrder(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(3*time.Second, "c", func(*Engine) { order = append(order, 3) })
	e.Schedule(1*time.Second, "a", func(*Engine) { order = append(order, 1) })
	e.Schedule(2*time.Second, "b", func(*Engine) { order = append(order, 2) })
	e.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("dispatch order = %v, want [1 2 3]", order)
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want 3s", e.Now())
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, "tie", func(*Engine) { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-timestamp order = %v, want FIFO", order)
		}
	}
}

func TestAfterIsRelative(t *testing.T) {
	e := New()
	var firedAt time.Duration
	e.Schedule(5*time.Second, "outer", func(en *Engine) {
		en.After(2*time.Second, "inner", func(en *Engine) { firedAt = en.Now() })
	})
	e.Run(0)
	if firedAt != 7*time.Second {
		t.Fatalf("inner fired at %v, want 7s", firedAt)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(10*time.Second, "late", func(en *Engine) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		en.Schedule(5*time.Second, "past", func(*Engine) {})
	})
	e.Run(0)
}

func TestScheduleNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	New().Schedule(0, "nil", nil)
}

func TestHorizonCutsRun(t *testing.T) {
	e := New()
	fired := 0
	e.Every(0, time.Minute, "tick", func(*Engine) { fired++ })
	e.Run(10 * time.Minute)
	// Ticks at 0,1,...,10 minutes inclusive.
	if fired != 11 {
		t.Fatalf("fired %d ticks, want 11", fired)
	}
	if e.Now() != 10*time.Minute {
		t.Fatalf("clock = %v, want 10m", e.Now())
	}
	if e.Pending() == 0 {
		t.Fatal("periodic event should still be pending past the horizon")
	}
}

func TestHorizonAdvancesClockWhenQueueDrains(t *testing.T) {
	e := New()
	e.Schedule(time.Second, "only", func(*Engine) {})
	e.Run(time.Hour)
	if e.Now() != time.Hour {
		t.Fatalf("clock = %v, want 1h (horizon)", e.Now())
	}
}

func TestEveryCancel(t *testing.T) {
	e := New()
	fired := 0
	var cancel func()
	cancel = e.Every(0, time.Minute, "tick", func(*Engine) {
		fired++
		if fired == 3 {
			cancel()
		}
	})
	e.Run(time.Hour)
	if fired != 3 {
		t.Fatalf("fired %d times after cancel at 3, want 3", fired)
	}
}

func TestStopHaltsDispatch(t *testing.T) {
	e := New()
	fired, later := 0, 0
	e.Every(0, time.Second, "tick", func(en *Engine) {
		fired++
		if fired == 5 {
			en.Stop()
		}
	})
	e.Schedule(time.Minute, "later", func(*Engine) { later++ })
	e.Run(0)
	if fired != 5 {
		t.Fatalf("fired %d, want 5", fired)
	}
	// Run returns with the other events still queued; the tick that called
	// Stop did not reschedule itself.
	if e.Pending() != 1 || later != 0 {
		t.Fatalf("after Stop: Pending = %d, later fired %d times; want 1 and 0", e.Pending(), later)
	}
	// A later Run dispatches them, and the stopped periodic stays ended.
	e.Run(0)
	if later != 1 || fired != 5 || e.Pending() != 0 {
		t.Fatalf("second Run: later = %d, ticks = %d, Pending = %d; want 1, 5, 0", later, fired, e.Pending())
	}
}

// TestDispatchOrderContract checks the queue contract itself on a seeded,
// tie-heavy schedule rather than through a golden: about 2,300 events on
// whole seconds and microseconds past them, handlers that schedule
// follow-ups at Now(), 1 ns, 2,047 ns, 63 and 64 slots and whole seconds
// later, a Stop mid-run, more events scheduled from outside while stopped,
// then a resumed run cut by a horizon. Events due within the ring's window
// wait in the ring and later ones in the heap, and the two tie on
// timestamps: an event scheduled a second ahead waits in the heap, and the
// follow-ups its timestamp's handlers schedule at Now() join the ring.
// Both hold events when the Stop and the horizon fall. Dispatch must
// follow strictly increasing (timestamp, scheduling index) pairs across
// both runs, Pending must count the ring and the heap, every event at or
// before the horizon must fire exactly once, and exactly the events past
// it must stay queued.
func TestDispatchOrderContract(t *testing.T) {
	const (
		initial = 1500
		stopAt  = 600 // dispatches before a handler calls Stop
		resumed = 300 // events scheduled from outside while stopped
		total   = 2300
		horizon = 5 * time.Second
	)
	followUps := []time.Duration{
		0, 1, 2047, 63 << slotShift, 64 << slotShift, time.Second, 2 * time.Second,
	}
	src := rng.New(2013)
	e := New()
	type dispatch struct {
		at  time.Duration
		idx int
	}
	var (
		ats   []time.Duration // timestamp per scheduling index
		fires []int           // dispatch count per scheduling index
		order []dispatch
		sched func(at time.Duration)
	)
	sched = func(at time.Duration) {
		idx := len(ats)
		ats = append(ats, at)
		fires = append(fires, 0)
		e.Schedule(at, "ev", func(en *Engine) {
			fires[idx]++
			order = append(order, dispatch{en.Now(), idx})
			if len(ats) < total && src.Intn(3) == 0 {
				sched(en.Now() + followUps[src.Intn(len(followUps))])
			}
			if len(order) == stopAt {
				en.Stop()
			}
		})
	}
	for i := 0; i < initial; i++ {
		sched(time.Duration(src.Intn(8)) * time.Second)
	}
	e.Run(horizon)
	if len(order) != stopAt {
		t.Fatalf("Stop after %d dispatches, but %d ran", stopAt, len(order))
	}
	if e.ringLen == 0 || len(e.queue) == 0 {
		t.Fatalf("stopped with %d events in the ring and %d in the heap; want both pending", e.ringLen, len(e.queue))
	}
	if want := len(ats) - len(order); e.Pending() != want {
		t.Fatalf("stopped: Pending = %d, want the %d scheduled but not dispatched", e.Pending(), want)
	}
	stoppedAt := e.Now()
	for i := 0; i < resumed; i++ {
		sched(stoppedAt + time.Duration(src.Intn(4))*time.Second)
	}
	e.Run(horizon)

	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if a.at > b.at || (a.at == b.at && a.idx >= b.idx) {
			t.Fatalf("dispatch %d: (%v, #%d) after (%v, #%d)", i, b.at, b.idx, a.at, a.idx)
		}
	}
	late := 0
	for idx, at := range ats {
		want := 1
		if at > horizon {
			want = 0
			late++
		}
		if fires[idx] != want {
			t.Fatalf("event #%d at %v fired %d times, want %d", idx, at, fires[idx], want)
		}
	}
	if e.Pending() != late {
		t.Fatalf("Pending = %d, want the %d events past the horizon", e.Pending(), late)
	}
	if e.ringLen == 0 || len(e.queue) == 0 {
		t.Fatalf("the horizon left %d events in the ring and %d in the heap; want it to cut both", e.ringLen, len(e.queue))
	}
	if len(ats) != total || len(order) <= stopAt {
		t.Fatalf("degenerate schedule: %d of %d events scheduled, %d dispatched", len(ats), total, len(order))
	}
}

// TestRingWrapsAround drives the clock through thousands of slots, so every
// bucket is reused many times after the ring wraps around. Each handler
// schedules follow-ups at Now(), a few nanoseconds on (often before its
// bucket's tail), at the last nanosecond of the ring's window and the first
// past it, at random points of and just past the window, and on the
// timestamp of an event still pending (a tie, in the ring or the heap).
// Dispatch must follow strictly increasing (timestamp, scheduling index)
// pairs, Pending must equal the events scheduled but not dispatched, and an
// event goes to the ring exactly when it falls inside the window.
func TestRingWrapsAround(t *testing.T) {
	const (
		total  = 40000
		window = ringSlots << slotShift
	)
	src := rng.New(24)
	e := New()
	var (
		ats        []time.Duration // timestamp per scheduling index
		dispatched int
		lastAt     time.Duration
		lastIdx    = -1
		edges      int // events on the window's last nanosecond
		sched      func(at time.Duration)
	)
	sched = func(at time.Duration) {
		idx := len(ats)
		ats = append(ats, at)
		ring, heap := e.ringLen, len(e.queue)
		inWindow := at>>slotShift-e.now>>slotShift < ringSlots
		e.Schedule(at, "ev", func(en *Engine) {
			if now := en.Now(); now < lastAt || (now == lastAt && idx <= lastIdx) {
				t.Fatalf("dispatched (%v, #%d) after (%v, #%d)", now, idx, lastAt, lastIdx)
			}
			lastAt, lastIdx = en.Now(), idx
			dispatched++
			if want := len(ats) - dispatched; en.Pending() != want {
				t.Fatalf("Pending = %d after %d of %d dispatches, want %d", en.Pending(), dispatched, len(ats), want)
			}
			k := 1 // one follow-up each, two while few events are pending
			if en.Pending() < 24 {
				k = 2
			}
			for ; k > 0 && len(ats) < total; k-- {
				now := en.Now()
				end := (now>>slotShift)<<slotShift + window // first nanosecond past the window
				var at time.Duration
				switch src.Intn(8) {
				case 0:
					at = now
				case 1:
					at = now + time.Duration(src.Intn(4))
				case 2:
					at = end - 1
					edges++
				case 3:
					at = end
				case 4:
					if at = ats[len(ats)-1-src.Intn(8)]; at < now {
						at = now
					}
				case 5:
					at = end + time.Duration(src.Intn(window/4))
				default:
					at = now + time.Duration(src.Intn(window))
				}
				sched(at)
			}
		})
		if inRing := e.ringLen > ring; inRing != inWindow || e.ringLen+len(e.queue) != ring+heap+1 {
			t.Fatalf("event at %v, now %v: ring %d -> %d, heap %d -> %d; want it in the ring = %v",
				at, e.now, ring, e.ringLen, heap, len(e.queue), inWindow)
		}
	}
	for i := 0; i < 16; i++ {
		sched(time.Duration(i) << slotShift)
	}
	e.Run(0)
	if dispatched != total || len(ats) != total || e.Pending() != 0 {
		t.Fatalf("dispatched %d of %d scheduled (want %d), %d pending", dispatched, len(ats), total, e.Pending())
	}
	if slots := e.Now() >> slotShift; slots < 100*ringSlots || edges < 1000 {
		t.Fatalf("the clock crossed %d slots with %d events on the window's edge; want at least %d and 1,000", slots, edges, 100*ringSlots)
	}
}

// TestScheduleDispatchZeroAlloc pins the event path's zero-allocation
// property: once the queue's backing array has grown, scheduling an event
// and dispatching it allocate nothing.
func TestScheduleDispatchZeroAlloc(t *testing.T) {
	e := New()
	fn := func(*Engine) {}
	for i := 0; i < 64; i++ {
		e.After(time.Duration(i)*time.Second, "grow", fn)
	}
	e.Run(0)
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.After(time.Duration(i%7)*time.Second, "e", fn)
		}
		e.Run(0)
	}); allocs != 0 {
		t.Fatalf("Schedule + dispatch allocates %v per run of 64 events, want 0", allocs)
	}
}

// TestFollowUpDispatchZeroAlloc is TestScheduleDispatchZeroAlloc for the
// events handlers schedule while Run dispatches: once their heap has grown,
// scheduling and dispatching them allocate nothing either.
func TestFollowUpDispatchZeroAlloc(t *testing.T) {
	e := New()
	fn := func(*Engine) {}
	fan := func(en *Engine) {
		for i := 0; i < 64; i++ {
			en.After(time.Duration(i%7)*time.Second, "e", fn)
		}
	}
	e.After(0, "fan", fan)
	e.Run(0)
	if allocs := testing.AllocsPerRun(100, func() {
		e.After(0, "fan", fan)
		e.Run(0)
	}); allocs != 0 {
		t.Fatalf("a handler's 64 follow-ups allocate %v per run, want 0", allocs)
	}
}

func TestProcessedCount(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.Schedule(time.Duration(i)*time.Second, "n", func(*Engine) {})
	}
	e.Run(0)
	if e.Processed() != 7 {
		t.Fatalf("Processed = %d, want 7", e.Processed())
	}
}

func TestNegativeAfterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	New().After(-time.Second, "neg", func(*Engine) {})
}

func TestNonPositivePeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive period did not panic")
		}
	}()
	New().Every(0, 0, "bad", func(*Engine) {})
}

func TestInterleavedPeriodics(t *testing.T) {
	e := New()
	var trace []string
	e.Every(0, 2*time.Second, "a", func(*Engine) { trace = append(trace, "a") })
	e.Every(time.Second, 2*time.Second, "b", func(*Engine) { trace = append(trace, "b") })
	e.Run(4 * time.Second)
	want := []string{"a", "b", "a", "b", "a"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.Schedule(time.Duration(j%37)*time.Second, "e", func(*Engine) {})
		}
		e.Run(0)
	}
}

// BenchmarkDispatchBehindQueue is a churn day's shape: 4,000 events queued
// before Run, one a second in shuffled order, each scheduling 20 follow-ups
// 1-20 us later, as an arrival's broadcast does with its deliveries. Every
// follow-up fires long before the next queued event.
func BenchmarkDispatchBehindQueue(b *testing.B) {
	follow := func(*Engine) {}
	arrive := func(en *Engine) {
		for k := 1; k <= 20; k++ {
			en.After(time.Duration(k)*time.Microsecond, "follow", follow)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 4000; j++ {
			e.Schedule(time.Duration(j*7919%4000)*time.Second, "arrive", arrive)
		}
		e.Run(0)
		if e.Processed() != 4000*21 {
			b.Fatalf("dispatched %d events, want %d", e.Processed(), 4000*21)
		}
	}
}

// BenchmarkDispatchAtNow is BenchmarkDispatchBehindQueue on a zero-latency
// fabric: each of the 4,000 queued events schedules 24 follow-ups at Now(),
// as a broadcast does when every delivery lands at once.
func BenchmarkDispatchAtNow(b *testing.B) {
	follow := func(*Engine) {}
	arrive := func(en *Engine) {
		for k := 0; k < 24; k++ {
			en.After(0, "follow", follow)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 4000; j++ {
			e.Schedule(time.Duration(j*7919%4000)*time.Second, "arrive", arrive)
		}
		e.Run(0)
		if e.Processed() != 4000*25 {
			b.Fatalf("dispatched %d events, want %d", e.Processed(), 4000*25)
		}
	}
}

func TestRecorderCountsEvents(t *testing.T) {
	e := New()
	rec := obs.NewRecorder(nil, nil)
	e.SetRecorder(rec)
	for i := 0; i < 5; i++ {
		e.Schedule(time.Duration(i)*time.Second, "tick", func(en *Engine) {
			if en.Now() == 0 {
				for j := 0; j < 3; j++ {
					en.After(20*time.Microsecond, "soon", func(*Engine) {})
				}
			}
		})
	}
	e.Schedule(20*time.Second, "other", func(*Engine) {})
	e.Run(0)
	s := rec.Snapshot()
	if got := s.Counters["sim.events"]; got != 9 {
		t.Errorf("sim.events = %d, want 9", got)
	}
	// The first tick queues three events 20 us later, in the ring. The
	// first of them pops with the other two still in the ring and four
	// ticks and the other event in the heap: the high-water mark counts
	// the ring and the heap.
	if got := s.Gauges["sim.queue_depth_max"]; got != 8 {
		t.Errorf("sim.queue_depth_max = %d, want 8", got)
	}
	if got := s.Timers["sim.handler.tick"].Count; got != 5 {
		t.Errorf("handler timer count = %d, want 5", got)
	}
	if got := s.Gauges["sim.now_ns"]; got != int64(20*time.Second) {
		t.Errorf("sim.now_ns = %d, want %d", got, int64(20*time.Second))
	}
}
