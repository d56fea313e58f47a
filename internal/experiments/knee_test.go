package experiments

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// quickKneeOptions mirrors the registry's -scale quick path.
func quickKneeOptions() KneeOptions {
	opts := DefaultKneeOptions()
	opts.FleetSizes = []int{20}
	opts.Horizon = time.Hour
	opts.MaxSlots = 6
	opts.StartPerServerHour = 16
	opts.StepPerServerHour = 8
	opts.Tolerance = 1
	return opts
}

func kneeCSV(t *testing.T, opts KneeOptions) []byte {
	t.Helper()
	res, err := Knee(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Figure().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestKneeIsSeedDeterministic is the seed-determinism golden: the same seed
// must produce a byte-identical knee CSV, and a different seed a different
// sweep (the experiment actually consumes its seed).
func TestKneeIsSeedDeterministic(t *testing.T) {
	a := kneeCSV(t, quickKneeOptions())
	b := kneeCSV(t, quickKneeOptions())
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different knee CSVs")
	}
	other := quickKneeOptions()
	other.Seed = 2
	if bytes.Equal(a, kneeCSV(t, other)) {
		t.Fatal("different seeds produced identical knee CSVs")
	}
}

// TestKneeWorkerBitIdentity: the cluster worker count is a throughput knob,
// never an input — the sweep's CSV must be byte-identical at workers 0, 1
// and 8. The 150-server fleet clears the par engine's fan-out floor, so the
// pooled code path genuinely executes.
func TestKneeWorkerBitIdentity(t *testing.T) {
	opts := quickKneeOptions()
	opts.FleetSizes = []int{150}
	opts.MaxSlots = 3
	base := kneeCSV(t, opts)
	for _, workers := range []int{1, 8} {
		o := opts
		o.Workers = workers
		if !bytes.Equal(base, kneeCSV(t, o)) {
			t.Fatalf("workers=%d knee CSV differs from sequential", workers)
		}
	}
}

// TestKneeStopRuleWithinTolerance: every halted cell must have accumulated
// exactly Tolerance+1 breaches — the ramp stopped at the first slot the
// budget allowed, never later — and its knee must be the highest clean
// rung below the first breach.
func TestKneeStopRuleWithinTolerance(t *testing.T) {
	opts := quickKneeOptions()
	res, err := Knee(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if !c.Halted {
			t.Fatalf("%d servers / %s: ladder exhausted without tripping the stop-rule (raise MaxSlots or the ladder)", c.Servers, c.Policy)
		}
		breaches := 0
		lastClean := 0.0
		for _, s := range c.Slots {
			if s.Breach {
				breaches++
			} else {
				lastClean = s.RatePerHour
			}
		}
		if breaches != opts.Tolerance+1 {
			t.Fatalf("%d servers / %s: halted after %d breaches, want exactly tolerance+1 = %d",
				c.Servers, c.Policy, breaches, opts.Tolerance+1)
		}
		if !c.Slots[len(c.Slots)-1].Breach {
			t.Fatalf("%d servers / %s: final slot did not breach, so the halt was late", c.Servers, c.Policy)
		}
		if c.KneePerHour != lastClean {
			t.Fatalf("%d servers / %s: knee %v != last clean rung %v", c.Servers, c.Policy, c.KneePerHour, lastClean)
		}
	}
}

// TestKneeHorizonIsSlotLength: RunConfig.Horizon is the slot length, so a
// horizon override through the registry must change the sweep.
func TestKneeHorizonIsSlotLength(t *testing.T) {
	hashes := func(cfg RunConfig) []string {
		res, err := Run("knee", RunRequest{Config: cfg, Scale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		return figureHashes(t, res.Figures)
	}
	if reflect.DeepEqual(hashes(RunConfig{}), hashes(RunConfig{Horizon: 90 * time.Minute})) {
		t.Fatal("a 90-min horizon override left the quick knee sweep unchanged")
	}
}

// TestKneeValidation: Knee rejects each option it validates before running
// any slot.
func TestKneeValidation(t *testing.T) {
	bad := map[string]func(*KneeOptions){
		"no fleet sizes":      func(o *KneeOptions) { o.FleetSizes = nil },
		"zero fleet size":     func(o *KneeOptions) { o.FleetSizes = []int{20, 0} },
		"zero start rate":     func(o *KneeOptions) { o.StartPerServerHour = 0 },
		"negative step":       func(o *KneeOptions) { o.StepPerServerHour = -1 },
		"zero horizon":        func(o *KneeOptions) { o.Horizon = 0 },
		"zero MaxSlots":       func(o *KneeOptions) { o.MaxSlots = 0 },
		"negative WarmupFrac": func(o *KneeOptions) { o.WarmupFrac = -0.1 },
		"WarmupFrac 1":        func(o *KneeOptions) { o.WarmupFrac = 1 },
		"zero Threshold":      func(o *KneeOptions) { o.Threshold = 0 },
		"Threshold 1":         func(o *KneeOptions) { o.Threshold = 1 },
		"negative Tolerance":  func(o *KneeOptions) { o.Tolerance = -1 },
		"negative start rate": func(o *KneeOptions) { o.StartPerServerHour = -4 },
		"negative horizon":    func(o *KneeOptions) { o.Horizon = -time.Hour },
		"negative MaxSlots":   func(o *KneeOptions) { o.MaxSlots = -1 },
	}
	for name, mutate := range bad {
		opts := quickKneeOptions()
		mutate(&opts)
		if _, err := Knee(opts); err == nil {
			t.Errorf("%s: Knee accepted it", name)
		}
	}
}

// rampOptions is a ladder of 100 + 50k arrivals per server-hour, run on one
// server by the scripted stop-rule tests below.
func rampOptions() KneeOptions {
	opts := DefaultKneeOptions()
	opts.StartPerServerHour = 100
	opts.StepPerServerHour = 50
	opts.MaxSlots = 20
	opts.Threshold = 0.05
	opts.Tolerance = 2
	return opts
}

// scriptedSlots breaches every slot whose rate reaches breakAt.
func scriptedSlots(breakAt, threshold float64) slotRunner {
	return func(rate float64, seed uint64) (kneeSlot, error) {
		s := kneeSlot{ViolationFrac: threshold / 10}
		if rate >= breakAt {
			s.ViolationFrac = 2 * threshold
		}
		return s, nil
	}
}

// TestRampStopRuleWithinTolerance: with persistent overload the ramp halts
// exactly Tolerance slots after the first threshold crossing — the
// stop-rule fires within one tolerance window, never later.
func TestRampStopRuleWithinTolerance(t *testing.T) {
	opts := rampOptions()
	// Rates: 100, 150, ..., first breach at 300 (slot index 4).
	cell, err := opts.ramp(1, 5, scriptedSlots(300, opts.Threshold))
	if err != nil {
		t.Fatal(err)
	}
	firstBreach := 4
	if want := firstBreach + opts.Tolerance + 1; len(cell.Slots) != want {
		t.Fatalf("ramp ran %d slots, want a halt after %d (first breach %d + tolerance %d)",
			len(cell.Slots), want, firstBreach, opts.Tolerance)
	}
	if !cell.Halted {
		t.Fatal("stop-rule did not report a halt")
	}
	if cell.KneePerHour != 250 {
		t.Fatalf("knee = %v/h, want 250/h (the last clean rung)", cell.KneePerHour)
	}
	for _, s := range cell.Slots {
		if want := s.RatePerHour >= 300; s.Breach != want {
			t.Fatalf("slot %d (rate %v) breach = %v, want %v", s.Index, s.RatePerHour, s.Breach, want)
		}
	}
}

// TestRampToleranceAbsorbsFluke: an isolated breach below the tolerance
// budget must not halt the ramp or poison the knee.
func TestRampToleranceAbsorbsFluke(t *testing.T) {
	opts := rampOptions()
	opts.MaxSlots = 6
	calls := 0
	fluke := func(rate float64, seed uint64) (kneeSlot, error) {
		calls++
		if calls == 2 {
			return kneeSlot{ViolationFrac: 1}, nil
		}
		return kneeSlot{}, nil
	}
	cell, err := opts.ramp(1, 5, fluke)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Halted {
		t.Fatal("a single fluke inside the tolerance budget halted the ramp")
	}
	if len(cell.Slots) != opts.MaxSlots {
		t.Fatalf("ramp ran %d slots, want all %d", len(cell.Slots), opts.MaxSlots)
	}
	// The knee is the highest clean rung: slot 5 at 100 + 5*50.
	if cell.KneePerHour != 350 {
		t.Fatalf("knee = %v/h, want 350/h", cell.KneePerHour)
	}
}

// TestRampFirstSlotBreach: when even the lowest rung breaches, the knee is
// zero (nothing sustainable was demonstrated) and the halt is immediate
// once the tolerance budget is spent.
func TestRampFirstSlotBreach(t *testing.T) {
	opts := rampOptions()
	opts.Tolerance = 0
	cell, err := opts.ramp(1, 5, scriptedSlots(0, opts.Threshold))
	if err != nil {
		t.Fatal(err)
	}
	if len(cell.Slots) != 1 || !cell.Halted {
		t.Fatalf("ran %d slots (halted %v), want an immediate halt", len(cell.Slots), cell.Halted)
	}
	if cell.KneePerHour != 0 {
		t.Fatalf("knee = %v/h, want 0 (no sustainable rate found)", cell.KneePerHour)
	}
}

// TestRampSlotSeeds: slot seeds are deterministic across runs and distinct
// across slots (each rung is an independent replication).
func TestRampSlotSeeds(t *testing.T) {
	collect := func() []uint64 {
		var seeds []uint64
		record := func(rate float64, seed uint64) (kneeSlot, error) {
			seeds = append(seeds, seed)
			return kneeSlot{}, nil
		}
		opts := rampOptions()
		opts.MaxSlots = 5
		if _, err := opts.ramp(1, 5, record); err != nil {
			t.Fatal(err)
		}
		return seeds
	}
	a, b := collect(), collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("slot %d seed differs across identical ramps: %d vs %d", i, a[i], b[i])
		}
		for j := 0; j < i; j++ {
			if a[i] == a[j] {
				t.Fatalf("slots %d and %d share seed %d", i, j, a[i])
			}
		}
	}
}

// TestRampLadderGeometry: slot k runs at (Start + k·Step) per server-hour
// times the fleet size.
func TestRampLadderGeometry(t *testing.T) {
	opts := rampOptions()
	opts.MaxSlots = 4
	var rates []float64
	record := func(rate float64, seed uint64) (kneeSlot, error) {
		rates = append(rates, rate)
		return kneeSlot{}, nil
	}
	if _, err := opts.ramp(3, 5, record); err != nil {
		t.Fatal(err)
	}
	want := []float64{300, 450, 600, 750}
	if len(rates) != len(want) {
		t.Fatalf("ran %d slots, want %d", len(rates), len(want))
	}
	for k := range want {
		if rates[k] != want[k] {
			t.Fatalf("slot %d rate %v, want %v", k, rates[k], want[k])
		}
	}
}
