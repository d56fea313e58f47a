package dc

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
	"repro/internal/trace"
)

func constVM(id int, mhz float64) *trace.VM {
	return &trace.VM{ID: id, Start: 0, End: time.Hour, Epoch: time.Hour, Demand: []float64{mhz}}
}

func twoServerDC() *DataCenter {
	return New([]Spec{{Cores: 4, CoreMHz: 2000}, {Cores: 8, CoreMHz: 2000}})
}

func TestSpecCapacity(t *testing.T) {
	if got := (Spec{Cores: 6, CoreMHz: 2000}).CapacityMHz(); got != 12000 {
		t.Fatalf("capacity = %v, want 12000", got)
	}
}

func TestStandardFleetMix(t *testing.T) {
	specs := StandardFleet(400)
	counts := map[int]int{}
	for _, sp := range specs {
		if sp.CoreMHz != 2000 {
			t.Fatalf("core MHz = %v, want 2000", sp.CoreMHz)
		}
		counts[sp.Cores]++
	}
	if counts[4] != 133 || counts[6] != 133 || counts[8] != 134 {
		t.Fatalf("core mix = %v, want thirds of 4/6/8", counts)
	}
	// Total capacity: the paper's 400-server DC.
	total := 0.0
	for _, sp := range specs {
		total += sp.CapacityMHz()
	}
	if math.Abs(total-4_804_000) > 1 { // 133*8000+133*12000+134*16000
		t.Fatalf("total capacity = %v", total)
	}
}

func TestUniformFleet(t *testing.T) {
	specs := UniformFleet(100, 6, 2000)
	if len(specs) != 100 {
		t.Fatalf("fleet size = %d", len(specs))
	}
	for _, sp := range specs {
		if sp.Cores != 6 || sp.CoreMHz != 2000 {
			t.Fatalf("spec = %+v", sp)
		}
	}
}

func TestPowerModel(t *testing.T) {
	pm := DefaultPowerModel()
	if got := pm.Power(Hibernated, 0.5); got != pm.HibernateW {
		t.Fatalf("hibernated power = %v", got)
	}
	if got := pm.Power(Active, 0); got != pm.PeakW*pm.IdleFraction {
		t.Fatalf("idle power = %v, want %v", got, pm.PeakW*pm.IdleFraction)
	}
	if got := pm.Power(Active, 1); got != pm.PeakW {
		t.Fatalf("full power = %v, want %v", got, pm.PeakW)
	}
	// Clamping: overload does not draw more than peak.
	if got := pm.Power(Active, 1.4); got != pm.PeakW {
		t.Fatalf("overload power = %v, want peak", got)
	}
	if got := pm.Power(Active, -0.1); got != pm.PeakW*pm.IdleFraction {
		t.Fatalf("negative-u power = %v, want idle", got)
	}
}

func TestPowerMonotoneInUtilization(t *testing.T) {
	pm := DefaultPowerModel()
	prev := -1.0
	for u := 0.0; u <= 1.0; u += 0.05 {
		p := pm.Power(Active, u)
		if p < prev {
			t.Fatalf("power not monotone at u=%v", u)
		}
		prev = p
	}
}

func TestActivateHibernateLifecycle(t *testing.T) {
	d := twoServerDC()
	s := d.Servers[0]
	if s.State() != Hibernated {
		t.Fatal("servers should start hibernated")
	}
	if err := d.Activate(s, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if s.State() != Active || s.ActivatedAt() != 5*time.Minute {
		t.Fatalf("state=%v activatedAt=%v", s.State(), s.ActivatedAt())
	}
	if err := d.Activate(s, time.Hour); err == nil {
		t.Fatal("double activation accepted")
	}
	if err := d.Hibernate(s); err != nil {
		t.Fatal(err)
	}
	if s.State() != Hibernated {
		t.Fatal("hibernate did not change state")
	}
	if err := d.Hibernate(s); err == nil {
		t.Fatal("double hibernation accepted")
	}
	if d.Activations != 1 || d.Hibernations != 1 {
		t.Fatalf("switch counters = %d/%d", d.Activations, d.Hibernations)
	}
}

func TestHibernateRefusesNonEmpty(t *testing.T) {
	d := twoServerDC()
	s := d.Servers[0]
	if err := d.Activate(s, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(constVM(1, 500), s); err != nil {
		t.Fatal(err)
	}
	if err := d.Hibernate(s); err == nil {
		t.Fatal("hibernated a server with VMs on board")
	}
}

func TestPlaceRemove(t *testing.T) {
	d := twoServerDC()
	s := d.Servers[0]
	vm := constVM(7, 1000)
	if err := d.Place(vm, s); err == nil {
		t.Fatal("placed on hibernated server")
	}
	if err := d.Activate(s, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(vm, s); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(vm, d.Servers[1]); err == nil {
		t.Fatal("double placement accepted")
	}
	host, ok := d.HostOf(7)
	if !ok || host != s {
		t.Fatal("HostOf wrong after placement")
	}
	if d.NumPlaced() != 1 || s.NumVMs() != 1 {
		t.Fatalf("counts = %d/%d", d.NumPlaced(), s.NumVMs())
	}
	back, err := d.Remove(7)
	if err != nil || back != s {
		t.Fatalf("Remove = %v, %v", back, err)
	}
	if _, err := d.Remove(7); err == nil {
		t.Fatal("double removal accepted")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrate(t *testing.T) {
	d := twoServerDC()
	a, b := d.Servers[0], d.Servers[1]
	if err := d.Activate(a, 0); err != nil {
		t.Fatal(err)
	}
	vm := constVM(3, 800)
	if err := d.Place(vm, a); err != nil {
		t.Fatal(err)
	}
	if err := d.Migrate(3, b); err == nil {
		t.Fatal("migrated to hibernated server")
	}
	if err := d.Activate(b, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Migrate(3, a); err == nil {
		t.Fatal("migrated onto own host")
	}
	if err := d.Migrate(3, b); err != nil {
		t.Fatal(err)
	}
	if host, _ := d.HostOf(3); host != b {
		t.Fatal("index not updated after migration")
	}
	if a.NumVMs() != 0 || b.NumVMs() != 1 {
		t.Fatalf("VM counts after migration: %d/%d", a.NumVMs(), b.NumVMs())
	}
	if err := d.Migrate(99, a); err == nil {
		t.Fatal("migrated unplaced VM")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUtilizationAndOverDemand(t *testing.T) {
	d := twoServerDC()
	s := d.Servers[0] // 8000 MHz
	if err := d.Activate(s, 0); err != nil {
		t.Fatal(err)
	}
	for i, mhz := range []float64{3000, 4000, 3000} {
		if err := d.Place(constVM(i, mhz), s); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.DemandAt(0); got != 10000 {
		t.Fatalf("demand = %v", got)
	}
	if got := s.UtilizationAt(0); got != 1.25 {
		t.Fatalf("utilization = %v, want 1.25 (uncapped)", got)
	}
	if got := s.OverDemandAt(0); got != 2000 {
		t.Fatalf("over-demand = %v, want 2000", got)
	}
	// After the VMs' lifetime ends, demand drops to zero.
	if got := s.DemandAt(2 * time.Hour); got != 0 {
		t.Fatalf("demand after departure = %v", got)
	}
}

func TestPowerAt(t *testing.T) {
	d := twoServerDC()
	pm := DefaultPowerModel()
	// All hibernated.
	if got := d.PowerAt(0, pm); got != 2*pm.HibernateW {
		t.Fatalf("hibernated fleet power = %v", got)
	}
	if err := d.Activate(d.Servers[0], 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(constVM(1, 4000), d.Servers[0]); err != nil { // u = 0.5
		t.Fatal(err)
	}
	want := pm.Power(Active, 0.5) + pm.HibernateW
	if got := d.PowerAt(0, pm); math.Abs(got-want) > 1e-9 {
		t.Fatalf("fleet power = %v, want %v", got, want)
	}
}

func TestActiveCountAndPlacedDemand(t *testing.T) {
	d := New(StandardFleet(6))
	if d.ActiveCount() != 0 {
		t.Fatal("fresh DC has active servers")
	}
	if err := d.Activate(d.Servers[0], 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(d.Servers[3], 0); err != nil {
		t.Fatal(err)
	}
	if d.ActiveCount() != 2 {
		t.Fatalf("active = %d", d.ActiveCount())
	}
	if err := d.Place(constVM(1, 1000), d.Servers[0]); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(constVM(2, 2000), d.Servers[3]); err != nil {
		t.Fatal(err)
	}
	if got := d.Servers[0].DemandAt(0) + d.Servers[3].DemandAt(0); got != 3000 {
		t.Fatalf("placed demand = %v", got)
	}
}

// TestActiveSetTracksState drives random power-state changes over a fleet
// spanning three bitset words and checks that AppendActive, a NextActive
// walk and ActiveCount all list exactly the servers whose State is Active,
// in ID order — also after a snapshot round trip.
func TestActiveSetTracksState(t *testing.T) {
	src := rng.New(5)
	d := New(StandardFleet(150))
	check := func(d *DataCenter, step int) {
		t.Helper()
		var want []int
		for _, s := range d.Servers {
			if s.State() == Active {
				want = append(want, s.ID)
			}
		}
		var listed, walked []int
		for _, s := range d.AppendActive(nil) {
			listed = append(listed, s.ID)
		}
		for id := d.NextActive(0); id >= 0; id = d.NextActive(id + 1) {
			walked = append(walked, id)
		}
		if !slices.Equal(listed, want) || !slices.Equal(walked, want) || d.ActiveCount() != len(want) {
			t.Fatalf("step %d: active %v, AppendActive %v, NextActive %v, ActiveCount %d", step, want, listed, walked, d.ActiveCount())
		}
	}
	for step := 0; step < 2000; step++ {
		s := d.Servers[src.Intn(len(d.Servers))]
		switch src.Intn(4) {
		case 0:
			_ = d.Activate(s, time.Duration(step)*time.Second)
		case 1:
			_ = d.Hibernate(s)
		case 2:
			_, _ = d.Fail(s, time.Duration(step)*time.Second)
		case 3:
			_ = d.Recover(s, time.Duration(step)*time.Second)
		}
		check(d, step)
	}
	restored, err := Restore(StandardFleet(150), &trace.Set{}, d.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	check(restored, -1)
	if got := d.NextActive(len(d.Servers)); got != -1 {
		t.Fatalf("NextActive past the fleet = %d", got)
	}
}

// TestNextActiveSeesLiveState: a walk that advances with NextActive visits
// a server activated above the cursor mid-walk and skips one hibernated
// ahead of it.
func TestNextActiveSeesLiveState(t *testing.T) {
	d := New(StandardFleet(130))
	for _, id := range []int{3, 70, 100} {
		if err := d.Activate(d.Servers[id], 0); err != nil {
			t.Fatal(err)
		}
	}
	var visited []int
	for id := d.NextActive(0); id >= 0; id = d.NextActive(id + 1) {
		visited = append(visited, id)
		if id == 3 {
			if err := d.Activate(d.Servers[129], 0); err != nil {
				t.Fatal(err)
			}
			if err := d.Hibernate(d.Servers[70]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want := []int{3, 100, 129}; !slices.Equal(visited, want) {
		t.Fatalf("visited %v, want %v", visited, want)
	}
}

func TestNewPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad spec did not panic")
		}
	}()
	New([]Spec{{Cores: 0, CoreMHz: 2000}})
}

// Property: any random sequence of valid operations preserves invariants,
// and HostOf and NumPlaced agree with a reference map after every step. The
// VM IDs straddle the index's page boundary (4,095 | 4,096) and start a
// sparse page at 1,000,000.
func TestQuickOperationsPreserveInvariants(t *testing.T) {
	ids := []int{4095, 4096, 4097, 8191, 1_000_000, 1_000_001, 1_004_096}
	f := func(seed uint64) bool {
		src := rng.New(seed)
		d := New(StandardFleet(9))
		vms := make([]*trace.VM, 30+len(ids))
		for i := range vms {
			id := i
			if i >= 30 {
				id = ids[i-30]
			}
			vms[i] = constVM(id, 200+src.Float64()*1500)
		}
		ref := map[int]int{} // VM ID -> host ID
		for step := 0; step < 300; step++ {
			s := d.Servers[src.Intn(len(d.Servers))]
			v := vms[src.Intn(len(vms))]
			// Fail and Recover are rarer than the rest: a crash succeeds on
			// any live server, and more of them would leave few active.
			switch op := src.Intn(16); {
			case op < 3:
				_ = d.Activate(s, time.Duration(step)*time.Second)
			case op < 4:
				_ = d.Hibernate(s)
			case op < 8:
				if d.Place(v, s) == nil {
					ref[v.ID] = s.ID
				}
			case op < 10:
				if _, err := d.Remove(v.ID); err == nil {
					delete(ref, v.ID)
				}
			case op < 14:
				if d.Migrate(v.ID, s) == nil {
					ref[v.ID] = s.ID
				}
			case op < 15:
				evicted, _ := d.Fail(s, time.Duration(step)*time.Second)
				for _, vm := range evicted {
					delete(ref, vm.ID)
				}
			default:
				_ = d.Recover(s, time.Duration(step)*time.Second)
			}
			if err := d.CheckInvariants(); err != nil {
				t.Logf("step %d: %v", step, err)
				return false
			}
			if d.NumPlaced() != len(ref) {
				t.Logf("step %d: NumPlaced = %d, reference holds %d", step, d.NumPlaced(), len(ref))
				return false
			}
			for _, vm := range vms {
				host, ok := d.HostOf(vm.ID)
				want, placed := ref[vm.ID]
				if ok != placed || ok && host.ID != want {
					t.Logf("step %d: HostOf(%d) = %v, %v; reference %d, %v", step, vm.ID, host, ok, want, placed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUtilizationAt400Servers(b *testing.B) {
	d := New(StandardFleet(400))
	src := rng.New(1)
	id := 0
	for _, s := range d.Servers {
		if err := d.Activate(s, 0); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 15; k++ {
			if err := d.Place(constVM(id, 100+src.Float64()*400), s); err != nil {
				b.Fatal(err)
			}
			id++
		}
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, s := range d.Servers {
			sink += s.UtilizationAt(0)
		}
	}
	_ = sink
}

func TestMinServersFor(t *testing.T) {
	specs := StandardFleet(6) // 2x8000, 2x12000, 2x16000 MHz
	cases := []struct {
		demand float64
		ta     float64
		want   int
	}{
		{0, 0.9, 0},
		{-5, 0.9, 0},
		{1000, 0.9, 1},                       // one 16000 at 0.9 covers 14400
		{14400, 0.9, 1},                      // exactly one big server
		{14401, 0.9, 2},                      // spills into the second
		{2 * 14400, 0.9, 2},                  // two big servers
		{2*14400 + 2*10800 + 2*7200, 0.9, 6}, // whole fleet packed
		{1e9, 0.9, 6},                        // saturated bound
	}
	for _, c := range cases {
		if got := MinServersFor(specs, c.demand, c.ta); got != c.want {
			t.Errorf("MinServersFor(%v, %v) = %d, want %d", c.demand, c.ta, got, c.want)
		}
	}
}

func TestMinServersForPanicsOnBadTa(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ta=0 did not panic")
		}
	}()
	MinServersFor(StandardFleet(3), 100, 0)
}

// Property: the bound is monotone in demand and never exceeds the fleet.
func TestQuickMinServersMonotone(t *testing.T) {
	specs := StandardFleet(30)
	f := func(a, b uint32) bool {
		da, db := float64(a%5_000_000), float64(b%5_000_000)
		if da > db {
			da, db = db, da
		}
		na := MinServersFor(specs, da, 0.9)
		nb := MinServersFor(specs, db, 0.9)
		return na <= nb && nb <= len(specs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRAMAccounting(t *testing.T) {
	d := New(WithRAM(UniformFleet(2, 6, 2000), 4096)) // 24 GiB each
	s := d.Servers[0]
	if s.Spec.RAMMB != 24576 {
		t.Fatalf("spec RAM = %v", s.Spec.RAMMB)
	}
	if err := d.Activate(s, 0); err != nil {
		t.Fatal(err)
	}
	vm1 := constVM(1, 1000)
	vm1.RAMMB = 8192
	vm2 := constVM(2, 1000)
	vm2.RAMMB = 4096
	if err := d.Place(vm1, s); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(vm2, s); err != nil {
		t.Fatal(err)
	}
	if got := s.UsedRAMMB(); got != 12288 {
		t.Fatalf("used RAM = %v", got)
	}
	if got := s.RAMUtilization(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("RAM utilization = %v, want 0.5", got)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Migration carries the footprint along.
	b := d.Servers[1]
	if err := d.Activate(b, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Migrate(1, b); err != nil {
		t.Fatal(err)
	}
	if s.UsedRAMMB() != 4096 || b.UsedRAMMB() != 8192 {
		t.Fatalf("RAM after migration: %v / %v", s.UsedRAMMB(), b.UsedRAMMB())
	}
	if _, err := d.Remove(2); err != nil {
		t.Fatal(err)
	}
	if s.UsedRAMMB() != 0 {
		t.Fatalf("RAM after removal = %v", s.UsedRAMMB())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRAMUnmodeled(t *testing.T) {
	d := New(UniformFleet(1, 6, 2000)) // no RAM spec
	s := d.Servers[0]
	if err := d.Activate(s, 0); err != nil {
		t.Fatal(err)
	}
	vm := constVM(1, 1000)
	vm.RAMMB = 9999
	if err := d.Place(vm, s); err != nil {
		t.Fatal(err)
	}
	if s.RAMUtilization() != 0 {
		t.Fatal("unmodeled RAM should report zero utilization")
	}
}
