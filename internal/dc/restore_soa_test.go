package dc

import (
	"testing"
	"time"

	"repro/internal/trace"
)

// soaFixture builds a small RAM-modeled fleet and a multi-epoch workload,
// runs a mutation+lookup history against it, and returns the data center
// plus the workload. The history mixes placements, migrations, removals and
// demand reads so the hot state is mid-flight: warm kernel windows on some
// servers, nonzero hit/miss/invalidation counters, and a RAM accumulator
// with a floating-point history replay alone cannot reproduce.
func soaFixture(t *testing.T) (*DataCenter, *trace.Set) {
	t.Helper()
	specs := WithRAM(UniformFleet(4, 4, 2000), 512)
	ws := &trace.Set{RefCapacityMHz: 8000}
	for i := 0; i < 8; i++ {
		ws.VMs = append(ws.VMs, &trace.VM{
			ID:     i,
			Start:  0,
			End:    12 * time.Hour,
			Epoch:  30 * time.Minute,
			Demand: []float64{100 + 7.3*float64(i), 260.5, 80.25, 310 + float64(i)},
			RAMMB:  128.5 + 17.75*float64(i),
		})
	}
	d := New(specs)
	for i := 0; i < 3; i++ {
		if err := d.Activate(d.Servers[i], time.Duration(i)*time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	for i, vm := range ws.VMs {
		if err := d.Place(vm, d.Servers[i%3]); err != nil {
			t.Fatal(err)
		}
	}
	// Demand reads at several epochs: misses, hits, and epoch-boundary
	// re-misses.
	for _, at := range []time.Duration{5 * time.Minute, 10 * time.Minute, 35 * time.Minute, 40 * time.Minute} {
		for _, s := range d.Servers {
			if s.State() == Active {
				s.DemandAt(at)
			}
		}
	}
	// Mutations: invalidations plus a RAM history (place+remove) whose
	// accumulator differs bit-wise from a fresh sum.
	if err := d.Migrate(3, d.Servers[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Remove(6); err != nil {
		t.Fatal(err)
	}
	for _, s := range d.Servers {
		if s.State() == Active {
			s.DemandAt(50 * time.Minute)
		}
	}
	return d, ws
}

// continueScript runs the identical post-restore workload against a data
// center and returns every demand it observed. Comparing the outputs of the
// original and the restored DC bit for bit — plus the final cache stats —
// is the differential contract.
func continueScript(t *testing.T, d *DataCenter) []float64 {
	t.Helper()
	var out []float64
	for _, at := range []time.Duration{55 * time.Minute, 65 * time.Minute, 95 * time.Minute} {
		for _, s := range d.Servers {
			if s.State() == Active {
				out = append(out, s.DemandAt(at))
			}
		}
	}
	if err := d.Migrate(1, d.Servers[2]); err != nil {
		t.Fatal(err)
	}
	for _, s := range d.Servers {
		if s.State() == Active {
			out = append(out, s.DemandAt(100*time.Minute))
		}
	}
	return out
}

func TestRestoreRepopulatesHotState(t *testing.T) {
	orig, ws := soaFixture(t)
	snap := orig.Snapshot()

	restored, err := Restore(WithRAM(UniformFleet(4, 4, 2000), 512), ws, snap)
	if err != nil {
		t.Fatal(err)
	}

	// The restored hot arrays must match the original's bit for bit.
	for i := range orig.Servers {
		oh, rh := &orig.hot, &restored.hot
		if oh.state[i] != rh.state[i] || oh.activatedAt[i] != rh.activatedAt[i] {
			t.Fatalf("server %d power state not restored", i)
		}
		if oh.usedRAMMB[i] != rh.usedRAMMB[i] {
			t.Fatalf("server %d RAM accumulator: restored %x, want %x", i, rh.usedRAMMB[i], oh.usedRAMMB[i])
		}
		if oh.kValid[i] != rh.kValid[i] || oh.kFrom[i] != rh.kFrom[i] || oh.kUntil[i] != rh.kUntil[i] || oh.kSum[i] != rh.kSum[i] {
			t.Fatalf("server %d kernel aggregate not restored", i)
		}
		if oh.kHits[i] != rh.kHits[i] || oh.kMisses[i] != rh.kMisses[i] || oh.kInval[i] != rh.kInval[i] {
			t.Fatalf("server %d kernel counters not restored", i)
		}
	}
	if got, want := restored.DemandCacheStats(), orig.DemandCacheStats(); got != want {
		t.Fatalf("cache stats not restored: %+v, want %+v", got, want)
	}

	// Continuing both with the identical script must stay bit-identical,
	// including the hit/miss accounting.
	wantDemand := continueScript(t, orig)
	gotDemand := continueScript(t, restored)
	for i := range wantDemand {
		if gotDemand[i] != wantDemand[i] {
			t.Fatalf("demand %d diverged after restore: %x, want %x", i, gotDemand[i], wantDemand[i])
		}
	}
	if got, want := restored.DemandCacheStats(), orig.DemandCacheStats(); got != want {
		t.Fatalf("cache stats diverged after continue: %+v, want %+v", got, want)
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A snapshot taken mid-block restores with every block empty, since the
// snapshot does not carry them. For the rest of the day the restored fleet
// returns the bits and counts the hits and misses of the original, which
// keeps serving its misses from the block it had.
func TestRestoreMidBlockStartsEmpty(t *testing.T) {
	const epoch = 5 * time.Minute
	specs := UniformFleet(3, 4, 2000)
	ws := &trace.Set{RefCapacityMHz: 8000}
	for i := 0; i < 9; i++ {
		d := make([]float64, 288)
		for j := range d {
			d[j] = 50 + float64(i) + float64(j%17)/3
		}
		ws.VMs = append(ws.VMs, &trace.VM{ID: i, End: 24 * time.Hour, Epoch: epoch, Demand: d})
	}
	orig := New(specs)
	for _, s := range orig.Servers {
		if err := orig.Activate(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i, vm := range ws.VMs {
		if err := orig.Place(vm, orig.Servers[i%3]); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 3; k++ {
		for _, s := range orig.Servers {
			s.DemandAt(time.Duration(k)*epoch + time.Minute)
		}
	}
	for i := range orig.Servers {
		if b := orig.hot.kBlock[i]; b.n != blockEpochs || b.from != 0 {
			t.Fatalf("server %d: block of %d from %v before the snapshot, want %d from 0", i, b.n, b.from, blockEpochs)
		}
	}
	restored, err := Restore(specs, ws, orig.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for i := range restored.Servers {
		if b := restored.hot.kBlock[i]; b.n != 0 {
			t.Fatalf("server %d: restored with a block of %d", i, b.n)
		}
	}
	for k := 2; k < 288; k++ {
		for _, off := range []time.Duration{time.Minute, 3 * time.Minute} {
			at := time.Duration(k)*epoch + off
			for i, s := range restored.Servers {
				if got, want := s.DemandAt(at), orig.Servers[i].DemandAt(at); got != want {
					t.Fatalf("server %d at %v: restored %x, original %x", i, at, got, want)
				}
			}
			if got, want := restored.DemandCacheStats(), orig.DemandCacheStats(); got != want {
				t.Fatalf("at %v: restored stats %+v, original %+v", at, got, want)
			}
		}
	}
}
