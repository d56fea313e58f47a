package dc

import (
	"testing"
	"time"

	"repro/internal/trace"
)

// The SoA hot-state layout exists so the control round's per-server reads
// never touch the allocator: a 100k-server tick that allocated per lookup
// would spend its time in GC, not in the policy. These tests pin the
// zero-alloc property of both demand-kernel paths — the windowed hit and the
// refill — with testing.AllocsPerRun, so a regression shows up
// as a test failure rather than as a flat speedup curve in the parscale
// bench.

// allocTestServer builds a one-server fleet hosting nVMs epoch-stepped VMs,
// active and out of grace.
func allocTestServer(t *testing.T, nVMs int) (*DataCenter, *Server) {
	t.Helper()
	d := New([]Spec{{Cores: 8, CoreMHz: 2000}})
	s := d.Servers[0]
	if err := d.Activate(s, 0); err != nil {
		t.Fatal(err)
	}
	const epochs = 13
	for id := 0; id < nVMs; id++ {
		demand := make([]float64, epochs)
		for e := range demand {
			demand[e] = 100 + float64(id*epochs+e)
		}
		vm := &trace.VM{ID: id, Start: 0, End: time.Hour, Epoch: 5 * time.Minute, Demand: demand}
		if err := d.Place(vm, s); err != nil {
			t.Fatal(err)
		}
	}
	return d, s
}

func TestDemandAtHitPathZeroAlloc(t *testing.T) {
	d, s := allocTestServer(t, 10)
	now := 10 * time.Second
	d.WarmSpan(0, len(d.Servers), now)
	if allocs := testing.AllocsPerRun(100, func() {
		_ = s.DemandAt(now)
	}); allocs != 0 {
		t.Fatalf("DemandAt hit path allocates %v per run, want 0", allocs)
	}
}

func TestDemandKernelRefillZeroAlloc(t *testing.T) {
	_, s := allocTestServer(t, 10)
	// Alternate between two times nine epochs apart, so every lookup lands
	// outside both the cached window and the block of epoch sums and runs
	// the full refill pass.
	times := [2]time.Duration{time.Minute, 46 * time.Minute}
	for i, at := range times {
		s.DemandAt(at)
		if _, ok := s.d.hot.kBlock[s.ID].entry(times[1-i]); ok {
			t.Fatalf("the block filled at %v covers %v", at, times[1-i])
		}
	}
	k := 0
	if allocs := testing.AllocsPerRun(100, func() {
		_ = s.DemandAt(times[k&1])
		k++
	}); allocs != 0 {
		t.Fatalf("demand-kernel refill allocates %v per run, want 0", allocs)
	}
}

func TestObserveSpanZeroAlloc(t *testing.T) {
	d, _ := allocTestServer(t, 10)
	out := make([]TickSample, len(d.Servers))
	times := [2]time.Duration{10 * time.Minute, 15 * time.Minute}
	k := 0
	if allocs := testing.AllocsPerRun(100, func() {
		d.ObserveSpan(0, len(d.Servers), times[k&1], out)
		k++
	}); allocs != 0 {
		t.Fatalf("ObserveSpan allocates %v per run, want 0", allocs)
	}
}
