package faults

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// fakeTarget records the injector's calls and hands back scripted VMs.
type fakeTarget struct {
	log     []string
	evicted map[int][]*trace.VM // per-server VMs returned on first crash
	crashed map[int]bool
}

func newFakeTarget() *fakeTarget {
	return &fakeTarget{evicted: make(map[int][]*trace.VM), crashed: make(map[int]bool)}
}

func (f *fakeTarget) CrashServer(id int) []*trace.VM {
	f.log = append(f.log, fmt.Sprintf("crash %d", id))
	if f.crashed[id] {
		panic(fmt.Sprintf("crash of already-failed server %d", id))
	}
	f.crashed[id] = true
	out := f.evicted[id]
	f.evicted[id] = nil
	return out
}

func (f *fakeTarget) RecoverServer(id int) {
	f.log = append(f.log, fmt.Sprintf("recover %d", id))
	if !f.crashed[id] {
		panic(fmt.Sprintf("recovery of healthy server %d", id))
	}
	f.crashed[id] = false
}

func (f *fakeTarget) ReplaceVM(vm *trace.VM) {
	f.log = append(f.log, fmt.Sprintf("replace %d", vm.ID))
}

func vmUntil(id int, end time.Duration) *trace.VM {
	return &trace.VM{ID: id, Start: 0, End: end, Epoch: end, Demand: []float64{500}}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{MTBF: -time.Hour},
		{MTBF: time.Hour}, // no MTTR
		{WakeFailProb: 1},
		{WakeFailProb: -0.1},
		{WakeDelayProb: 0.5}, // no WakeDelay
		{WakeDelayProb: 1.5, WakeDelay: time.Minute},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoverAlternates(t *testing.T) {
	cfg := Config{MTBF: time.Hour, MTTR: 10 * time.Minute}
	in, err := New(cfg, 4, 48*time.Hour, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	tgt := newFakeTarget()
	in.Start(eng, tgt) // fakeTarget panics on crash-while-crashed or spurious recovery
	eng.Run(48 * time.Hour)
	if in.Stats.Crashes == 0 {
		t.Fatal("no crashes over 48 h at a 1 h MTBF")
	}
	if got, want := in.Stats.Crashes, in.Stats.Recoveries; got-want > 4 || got < want {
		t.Fatalf("crashes = %d recoveries = %d", got, want)
	}
	if in.Stats.MeanRepair() <= 0 {
		t.Fatal("no repair latency recorded")
	}
}

func TestScheduleIsDeterministic(t *testing.T) {
	run := func() []string {
		in, err := New(Config{MTBF: 2 * time.Hour, MTTR: 15 * time.Minute}, 8, 24*time.Hour, 42)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.New()
		tgt := newFakeTarget()
		in.Start(eng, tgt)
		eng.Run(24 * time.Hour)
		return tgt.log
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedules sized %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestEvacuationAccounting(t *testing.T) {
	horizon := 10 * time.Hour
	in, err := New(Config{MTBF: time.Hour, MTTR: 10 * time.Minute}, 1, horizon, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	tgt := newFakeTarget()
	tgt.evicted[0] = []*trace.VM{vmUntil(1, horizon), vmUntil(2, horizon), vmUntil(3, horizon)}
	in.Start(eng, tgt)
	eng.Run(horizon)
	if in.Stats.VMsEvacuated != 3 || in.Stats.MaxStorm != 3 {
		t.Fatalf("evacuated = %d storm = %d", in.Stats.VMsEvacuated, in.Stats.MaxStorm)
	}
	// Replacement lands VM 1 a minute after its eviction; the others never land.
	in.OnPlaced(1, in.outstanding[1].since+time.Minute)
	if in.Stats.Replaced != 1 {
		t.Fatalf("replaced = %d", in.Stats.Replaced)
	}
	if got := in.Stats.DowntimeSeconds; got != 60 {
		t.Fatalf("downtime = %v s, want 60", got)
	}
	in.Finish()
	if len(in.outstanding) != 0 {
		t.Fatal("Finish left windows open")
	}
	if in.Stats.DowntimeSeconds <= 60 {
		t.Fatalf("unplaced VMs accrued no downtime: %v", in.Stats.DowntimeSeconds)
	}
	// Finishing twice adds nothing.
	before := in.Stats.DowntimeSeconds
	in.Finish()
	//ecolint:allow float-eq — no arithmetic happened in between; any change is a real double-count
	if in.Stats.DowntimeSeconds != before {
		t.Fatal("Finish double-counted")
	}
}

func TestWakeOutcomeStats(t *testing.T) {
	in, err := New(Config{WakeFailProb: 0.5, WakeDelayProb: 0.5, WakeDelay: time.Minute}, 4, time.Hour, 9)
	if err != nil {
		t.Fatal(err)
	}
	fails, stalls, clean := 0, 0, 0
	for i := 0; i < 1000; i++ {
		ok, delay := in.WakeOutcome(i % 4)
		switch {
		case !ok:
			fails++
		case delay > 0:
			stalls++
		default:
			clean++
		}
	}
	if fails != in.Stats.WakeFails || stalls != in.Stats.WakeStalls {
		t.Fatalf("counter drift: %d/%d vs %+v", fails, stalls, in.Stats)
	}
	if fails < 400 || fails > 600 {
		t.Fatalf("fails = %d of 1000 at p=0.5", fails)
	}
	if clean == 0 || stalls == 0 {
		t.Fatalf("outcomes never varied: fails=%d stalls=%d clean=%d", fails, stalls, clean)
	}
}

func TestAvailabilityGuards(t *testing.T) {
	if got := (Stats{}).Availability(0); got != 1 {
		t.Fatalf("availability over empty workload = %v", got)
	}
	s := Stats{DowntimeSeconds: 50}
	//ecolint:allow float-eq — exact decimal arithmetic
	if got := s.Availability(100); got != 0.5 {
		t.Fatalf("availability = %v, want 0.5", got)
	}
	if got := s.Availability(10); got != 0 {
		t.Fatalf("availability clamps at 0, got %v", got)
	}
	if (Stats{}).MeanRepair() != 0 {
		t.Fatal("mean repair over zero recoveries")
	}
}
