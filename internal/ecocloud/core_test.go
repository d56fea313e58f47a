package ecocloud

import (
	"testing"
	"time"

	"repro/internal/dc"
	"repro/internal/rng"
	"repro/internal/trace"
)

func mustCore(t *testing.T, cfg Config) Core {
	t.Helper()
	k, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// noDraw is a one-server stream table for cases that must decide without a
// trial: the test fails if the decision derives its entry.
func noDraw(t *testing.T) *Streams {
	st := NewStreams(rng.New(1), 1)
	t.Cleanup(func() {
		if st.srcs[0] != nil {
			t.Error("decision drew from the server's stream")
		}
	})
	return &st
}

// streamOf is a one-server stream table whose entry is src.
func streamOf(src *rng.Source) *Streams { return &Streams{srcs: []*rng.Source{src}} }

// accept runs k's trial under threshold ta for the one server of st.
func accept(k *Core, st *Streams, ta, demandMHz, ramMB float64, s Invitee) bool {
	r := k.Round(ta)
	return r.Accept(st, 0, demandMHz, ramMB, s)
}

// untouched fails unless src is still at the state of a fresh rng.New(seed).
func untouched(t *testing.T, src *rng.Source, seed uint64) {
	t.Helper()
	if src.State() != rng.New(seed).State() {
		t.Fatal("decision drew from a stream it must leave alone")
	}
}

func TestCoreAcceptFeasibilityAndGrace(t *testing.T) {
	k := mustCore(t, DefaultConfig())
	s := Invitee{U: 0.5, CapMHz: 10_000}
	// 0.5 + 4,000/10,000 = 0.9 fits exactly under Ta = 0.9; a grace server
	// then accepts without a trial.
	s.Grace = true
	if !accept(&k, noDraw(t), k.Ta, 4_000, 0, s) {
		t.Fatal("grace server refused a VM that fits")
	}
	// One MHz more does not fit, grace or not, and draws nothing.
	if accept(&k, noDraw(t), k.Ta, 4_001, 0, s) {
		t.Fatal("grace server accepted a VM past Ta")
	}
	s.Grace = false
	if accept(&k, noDraw(t), k.Ta, 4_001, 0, s) {
		t.Fatal("accepted a VM past Ta")
	}
}

// TestCoreAcceptTrialOnTightenedThreshold: outside grace the trial is one
// Bernoulli draw on fa(u) under the round's threshold — fa itself, or fa
// tightened to a high migration's Ta'.
func TestCoreAcceptTrialOnTightenedThreshold(t *testing.T) {
	k := mustCore(t, DefaultConfig())
	s := Invitee{U: 0.6, CapMHz: 10_000}
	for _, ta := range []float64{k.Ta, 0.8} {
		fa, err := NewAssignProb(ta, k.P)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 200; seed++ {
			src := rng.New(seed)
			got := accept(&k, streamOf(src), ta, 500, 0, s)
			if want := rng.New(seed).Bernoulli(fa.Eval(s.U)); got != want {
				t.Fatalf("ta %v seed %d: accept %v, want the fa(u) draw %v", ta, seed, got, want)
			}
		}
	}
}

func TestCoreScan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 1e-9 // f_l ~ 1 below Tl
	k := mustCore(t, cfg)
	now := 10 * time.Hour
	old, fresh := time.Duration(0), now-time.Minute // activation times: past / inside grace
	cases := []struct {
		name          string
		numVMs        int
		u             float64
		activatedAt   time.Duration
		lastMig       time.Duration
		want          ScanAction
		mayDraw       bool
		nilSrcAllowed bool
	}{
		{"empty in grace", 0, 0, fresh, 0, ScanNone, false, true},
		{"empty past grace", 0, 0, old, 0, ScanHibernate, false, true},
		{"low in grace", 1, 0.2, fresh, 0, ScanNone, false, false},
		{"low cooling down", 1, 0.2, old, now - time.Minute, ScanNone, false, false},
		{"low", 1, 0.2, old, 0, ScanLow, true, false},
		{"low after cooldown", 1, 0.2, old, now - time.Hour, ScanLow, true, false},
		{"in band", 1, 0.7, old, 0, ScanNone, false, false},
		{"overload, even in grace", 1, 1.2, fresh, 0, ScanHigh, true, false},
	}
	for _, c := range cases {
		var src *rng.Source
		if !c.nilSrcAllowed {
			src = rng.New(7)
		}
		if got := k.Scan(src, c.numVMs, c.u, now, c.activatedAt, c.lastMig); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
		if src != nil && !c.mayDraw {
			untouched(t, src, 7)
		}
	}
}

func TestCoreMigrationVM(t *testing.T) {
	k := mustCore(t, DefaultConfig()) // Th = 0.95
	now := time.Hour
	vms := []*trace.VM{constVM(1, 100), constVM(2, 2_000), constVM(3, 900), constVM(4, 3_000)}
	if k.MigrationVM(rng.New(1), nil, now, 1.2, 10_000, true) != nil {
		t.Fatal("picked a VM from an empty candidate list")
	}
	// Low: uniform over every candidate, on the server's stream.
	for seed := uint64(1); seed <= 20; seed++ {
		got := k.MigrationVM(rng.New(seed), vms, now, 0.2, 10_000, false)
		if want := vms[rng.New(seed).Intn(len(vms))]; got != want {
			t.Fatalf("low seed %d: VM %d, want %d", seed, got.ID, want.ID)
		}
	}
	// High at u = 1.1 on 10 GHz: 1,500 MHz must go, so only VMs 2 and 4 qualify.
	big := []*trace.VM{vms[1], vms[3]}
	for seed := uint64(1); seed <= 20; seed++ {
		got := k.MigrationVM(rng.New(seed), vms, now, 1.1, 10_000, true)
		if want := big[rng.New(seed).Intn(len(big))]; got != want {
			t.Fatalf("high seed %d: VM %d, want %d", seed, got.ID, want.ID)
		}
	}
	// High with nothing big enough: the largest goes, without a draw.
	src := rng.New(3)
	if got := k.MigrationVM(src, vms, now, 1.5, 10_000, true); got.ID != 4 {
		t.Fatalf("high fallback picked VM %d, want the largest (4)", got.ID)
	}
	untouched(t, src, 3)
}

func TestCoreHighMigTa(t *testing.T) {
	k := mustCore(t, DefaultConfig()) // Ta 0.9
	if got := k.HighMigTa(0.96); got != 0.9*0.96 {
		t.Fatalf("Ta'(0.96) = %v, want 0.9·u", got)
	}
	if got := k.HighMigTa(1.5); got != k.Ta {
		t.Fatalf("Ta'(1.5) = %v, want it clamped to Ta", got)
	}
}

func TestCoreWakeAndLargest(t *testing.T) {
	k := mustCore(t, DefaultConfig())
	specs := []dc.Spec{{Cores: 4, CoreMHz: 2000}, {Cores: 8, CoreMHz: 2000}, {Cores: 6, CoreMHz: 2000}, {Cores: 8, CoreMHz: 2000}}
	spec := func(i int) dc.Spec { return specs[i] }
	// 11,000 MHz fits only the 8-core servers (14,400 MHz under Ta = 0.9).
	fitting := []int{1, 3}
	for seed := uint64(1); seed <= 20; seed++ {
		got := k.Wake(rng.New(seed), len(specs), spec, 11_000, 0, k.Ta)
		if want := fitting[rng.New(seed).Intn(len(fitting))]; got != want {
			t.Fatalf("seed %d: woke %d, want %d", seed, got, want)
		}
	}
	src := rng.New(5)
	if got := k.Wake(src, len(specs), spec, 20_000, 0, k.Ta); got != -1 {
		t.Fatalf("woke %d for a VM no server fits", got)
	}
	untouched(t, src, 5)
	if got := Largest(len(specs), spec); got != 1 {
		t.Fatalf("Largest = %d, want the first 8-core server (1)", got)
	}
	if got := Largest(0, spec); got != -1 {
		t.Fatalf("Largest(nil) = %d", got)
	}
	// With the memory extension on, the VM's footprint must fit too.
	cfg := DefaultConfig()
	cfg.RAM = DefaultRAMConfig()
	km := mustCore(t, cfg)
	ramSpecs := dc.WithRAM(specs, 1024) // 4-8 GiB
	for seed := uint64(1); seed <= 20; seed++ {
		got := km.Wake(rng.New(seed), len(ramSpecs), func(i int) dc.Spec { return ramSpecs[i] }, 1_000, 7_000, km.Ta)
		if got != 1 && got != 3 {
			t.Fatalf("seed %d: woke %d, whose memory cannot hold 7,000 MiB", seed, got)
		}
	}
}

func TestLeastUtilized(t *testing.T) {
	d := dc.New(dc.UniformFleet(4, 6, 2000))
	for i, mhz := range []float64{6_000, 0, 1_200, 1_200} {
		s := d.Servers[i]
		if err := d.Activate(s, 0); err != nil {
			t.Fatal(err)
		}
		if mhz > 0 {
			if err := d.Place(constVM(i, mhz), s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Hibernate(d.Servers[1]); err != nil { // the empty one is not a candidate
		t.Fatal(err)
	}
	if i, u := LeastUtilized(d.Servers, 0); i != 2 || u != 0.1 {
		t.Fatalf("least utilized = server %d at %v, want the first of the ties (2 at 0.1)", i, u)
	}
	if i, _ := LeastUtilized(nil, 0); i != -1 {
		t.Fatalf("least utilized of no servers = %d", i)
	}
}

// TestPickFitMatchesCollectThenDraw: the allocation-free pick draws exactly
// what collecting the fitting elements and drawing an index would.
func TestPickFitMatchesCollectThenDraw(t *testing.T) {
	xs := []int{3, 8, 1, 9, 4, 7, 2, 6}
	for _, min := range []int{0, 4, 7, 10} {
		fit := func(i int) bool { return xs[i] >= min }
		var collected []int
		for i := range xs {
			if fit(i) {
				collected = append(collected, i)
			}
		}
		for seed := uint64(1); seed <= 20; seed++ {
			got := pickFit(rng.New(seed), len(xs), fit)
			want := -1
			if len(collected) > 0 {
				want = collected[rng.New(seed).Intn(len(collected))]
			}
			if got != want {
				t.Fatalf("min %d seed %d: picked %d, want %d", min, seed, got, want)
			}
		}
	}
}
