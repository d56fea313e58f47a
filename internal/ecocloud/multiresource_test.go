package ecocloud

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// The §V multi-resource strategies live in Core.Accept; these tests drive
// them through it, with memory modelled on a 10 GHz / 10 GiB server.

func multiCore(t *testing.T, strategy MultiStrategy) Core {
	t.Helper()
	cfg := DefaultConfig() // CPU: Ta 0.9, p 3
	cfg.RAM = &RAMConfig{Ta: 0.8, P: 2, Strategy: strategy}
	return mustCore(t, cfg)
}

// memServer is an invitee at CPU utilization u and memory utilization ramU.
func memServer(u, ramU float64) Invitee {
	return Invitee{U: u, CapMHz: 10_000, RAMU: ramU, RAMMB: 10_240}
}

// acceptRate runs n trials of a small VM (100 MHz, 100 MiB) on one stream.
func acceptRate(k Core, s Invitee, seed uint64, n int) float64 {
	src := rng.New(seed)
	hits := 0
	for i := 0; i < n; i++ {
		if k.Accept(func() *rng.Source { return src }, k.Ta, 100, 100, s) {
			hits++
		}
	}
	return float64(hits) / float64(n)
}

func TestNewMultiResourceValidation(t *testing.T) {
	for _, ram := range []*RAMConfig{{Ta: 0, P: 2}, {Ta: 0.8, P: 0}} {
		cfg := DefaultConfig()
		cfg.RAM = ram
		if _, err := NewCore(cfg); err == nil {
			t.Fatalf("memory config %+v accepted", *ram)
		}
	}
}

// TestResourcesSortedOrder: AllTrials always draws CPU first, then memory,
// on the server's one stream.
func TestResourcesSortedOrder(t *testing.T) {
	k := multiCore(t, AllTrials)
	s := memServer(0.6, 0.5)
	for seed := uint64(1); seed <= 200; seed++ {
		src := rng.New(seed)
		got := k.Accept(func() *rng.Source { return src }, k.Ta, 100, 100, s)
		r := rng.New(seed)
		want := r.Bernoulli(k.fa.Eval(s.U)) && r.Bernoulli(k.faRAM.Eval(s.RAMU))
		if got != want || src.State() != r.State() {
			t.Fatalf("seed %d: draws differ from CPU-then-memory", seed)
		}
	}
}

// TestTrialAllRequiresAllResources: a sure CPU trial does not carry a
// memory trial that cannot succeed (fa_ram(0) = 0).
func TestTrialAllRequiresAllResources(t *testing.T) {
	k := multiCore(t, AllTrials)
	if got := acceptRate(k, memServer(k.fa.ArgMax(), 0), 1, 2_000); got != 0 {
		t.Fatalf("accepted %.3f of the time with an idle memory dimension", got)
	}
}

func TestTrialAllRejectsWhenAnyResourceFull(t *testing.T) {
	k := multiCore(t, AllTrials)
	// Memory at 0.79 plus a 200 MiB VM passes RAM Ta = 0.8: rejected before
	// any trial, however attractive the CPU side.
	if k.Accept(noDraw(t), k.Ta, 100, 200, memServer(0.675, 0.79)) {
		t.Fatal("accepted despite a full resource")
	}
}

func TestTrialAllEmpiricalRateMatchesProduct(t *testing.T) {
	k := multiCore(t, AllTrials)
	s := memServer(0.6, 0.5)
	want := k.fa.Eval(s.U) * k.faRAM.Eval(s.RAMU)
	if got := acceptRate(k, s, 3, 200_000); math.Abs(got-want) > 0.01 {
		t.Fatalf("empirical rate %v, closed form %v", got, want)
	}
}

// TestCriticalPicksHighestRelativeUtilization: CriticalPlusConstraints
// draws once, on the resource with the higher u/Ta.
func TestCriticalPicksHighestRelativeUtilization(t *testing.T) {
	k := multiCore(t, CriticalPlusConstraints)
	for _, c := range []struct {
		s      Invitee
		useRAM bool
	}{
		{memServer(0.6, 0.6), true},   // cpu 0.6/0.9 = 0.667 < ram 0.6/0.8 = 0.75
		{memServer(0.85, 0.6), false}, // cpu 0.85/0.9 = 0.944 beats ram
	} {
		for seed := uint64(1); seed <= 200; seed++ {
			src := rng.New(seed)
			got := k.Accept(func() *rng.Source { return src }, k.Ta, 1, 1, c.s)
			p := k.fa.Eval(c.s.U)
			if c.useRAM {
				p = k.faRAM.Eval(c.s.RAMU)
			}
			if want := rng.New(seed).Bernoulli(p); got != want {
				t.Fatalf("%+v seed %d: accept %v, want the critical resource's draw %v", c.s, seed, got, want)
			}
		}
	}
}

func TestTrialCriticalConstraints(t *testing.T) {
	k := multiCore(t, CriticalPlusConstraints)
	// CPU is critical (0.88/0.9), but memory ends past its threshold: the
	// constraint rejects without a trial.
	if k.Accept(noDraw(t), k.Ta, 1, 200, memServer(0.88, 0.79)) {
		t.Fatal("accepted despite a violated constraint")
	}
}

func TestTrialCriticalUsesSingleTrial(t *testing.T) {
	k := multiCore(t, CriticalPlusConstraints)
	// Memory critical at 0.6/0.8; CPU low (0.2) would often fail its own
	// trial under AllTrials, but strategy 2 ignores CPU's probability.
	s := memServer(0.2, 0.6)
	want := k.faRAM.Eval(0.6)
	if got := acceptRate(k, s, 7, 200_000); math.Abs(got-want) > 0.01 {
		t.Fatalf("empirical rate %v, want fa_ram(0.6) = %v", got, want)
	}
	if all := k.fa.Eval(s.U) * want; all >= want {
		t.Fatalf("AllTrials prob %v not below critical-only %v", all, want)
	}
	src := rng.New(9)
	k.Accept(func() *rng.Source { return src }, k.Ta, 100, 100, s)
	r := rng.New(9)
	r.Float64()
	if src.State() != r.State() {
		t.Fatal("the critical strategy did not draw exactly once")
	}
}

// TestTrialCriticalMissingResource: a server that does not model memory
// runs the paper's CPU-only trial even with the §V extension on.
func TestTrialCriticalMissingResource(t *testing.T) {
	k := multiCore(t, CriticalPlusConstraints)
	s := Invitee{U: 0.6, CapMHz: 10_000, RAMU: 0.99}
	for seed := uint64(1); seed <= 200; seed++ {
		src := rng.New(seed)
		got := k.Accept(func() *rng.Source { return src }, k.Ta, 100, 1e9, s)
		if want := rng.New(seed).Bernoulli(k.fa.Eval(s.U)); got != want {
			t.Fatalf("seed %d: accept %v, want the CPU-only draw %v", seed, got, want)
		}
	}
}
