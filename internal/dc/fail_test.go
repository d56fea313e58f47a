package dc

import (
	"testing"
	"time"

	"repro/internal/trace"
)

// testWorkload builds n long-lived constant-demand VMs.
func testWorkload(n int) *trace.Set {
	ws := &trace.Set{RefCapacityMHz: 2400}
	for i := 0; i < n; i++ {
		ws.VMs = append(ws.VMs, constVM(i, 500+float64(100*i)))
	}
	return ws
}

func TestFailEvictsAndRecoverRejoins(t *testing.T) {
	d := twoServerDC()
	s := d.Servers[1]
	if err := d.Activate(s, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(constVM(1, 1000), s); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(constVM(2, 2000), s); err != nil {
		t.Fatal(err)
	}
	evicted, err := d.Fail(s, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 2 || evicted[0].ID != 1 || evicted[1].ID != 2 {
		t.Fatalf("evicted = %v", evicted)
	}
	if s.State() != Failed || s.NumVMs() != 0 || d.NumPlaced() != 0 {
		t.Fatalf("post-crash state=%v vms=%d placed=%d", s.State(), s.NumVMs(), d.NumPlaced())
	}
	if _, ok := d.HostOf(1); ok {
		t.Fatal("evicted VM still indexed")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckRuntime(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// A dead machine is unusable until repaired.
	if err := d.Activate(s, time.Hour); err == nil {
		t.Fatal("activated a failed server")
	}
	if err := d.Place(constVM(3, 100), s); err == nil {
		t.Fatal("placed a VM on a failed server")
	}
	if err := d.Hibernate(s); err == nil {
		t.Fatal("hibernated a failed server")
	}
	if _, err := d.Fail(s, time.Hour); err == nil {
		t.Fatal("double crash accepted")
	}
	if err := d.Recover(s, 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	if s.State() != Hibernated {
		t.Fatalf("recovered state = %v, want hibernated", s.State())
	}
	if err := d.Recover(s, 2*time.Hour); err == nil {
		t.Fatal("recovered a non-failed server")
	}
	if d.Failures != 1 || d.Recoveries != 1 {
		t.Fatalf("counters = %d/%d", d.Failures, d.Recoveries)
	}
}

func TestFailedServerDrawsNoPower(t *testing.T) {
	pm := DefaultPowerModel()
	if got := pm.Power(Failed, 0.5); got != 0 {
		t.Fatalf("failed power = %v, want 0", got)
	}
	d := twoServerDC()
	if _, err := d.Fail(d.Servers[0], 0); err != nil {
		t.Fatal(err)
	}
	want := pm.HibernateW // only the surviving hibernated server draws
	if got := d.PowerAt(0, pm); got != want {
		t.Fatalf("fleet power = %v, want %v", got, want)
	}
}

func TestMigrateToNonActiveIsHardError(t *testing.T) {
	d := New(UniformFleet(3, 6, 2000))
	d.SetChecked(false) // the release-build path must reject this on its own
	src := d.Servers[0]
	if err := d.Activate(src, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(constVM(1, 1000), src); err != nil {
		t.Fatal(err)
	}
	if err := d.Migrate(1, d.Servers[1]); err == nil {
		t.Fatal("migrated to a hibernated server")
	}
	if _, err := d.Fail(d.Servers[2], 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Migrate(1, d.Servers[2]); err == nil {
		t.Fatal("migrated to a failed server")
	}
	if host, _ := d.HostOf(1); host != src {
		t.Fatal("failed migration moved the VM")
	}
}

func TestPlaceOnHibernatedIsHardError(t *testing.T) {
	d := twoServerDC()
	d.SetChecked(false)
	if err := d.Place(constVM(1, 100), d.Servers[0]); err == nil {
		t.Fatal("placed a VM on a hibernated server without error")
	}
}

func TestFailJournalEvents(t *testing.T) {
	d := twoServerDC()
	s := d.Servers[0]
	if err := d.Activate(s, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(constVM(7, 500), s); err != nil {
		t.Fatal(err)
	}
	var got []Event
	d.SetJournal(func(e Event) { got = append(got, e) })
	if _, err := d.Fail(s, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Recover(s, time.Minute); err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: EventCrashEvict, VM: 7, Server: 0, Dest: -1},
		{Kind: EventFail, VM: -1, Server: 0, Dest: -1},
		{Kind: EventRecover, VM: -1, Server: 0, Dest: -1},
	}
	if len(got) != len(want) {
		t.Fatalf("events = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSnapshotRoundTripsFailedState(t *testing.T) {
	specs := UniformFleet(3, 6, 2000)
	d := New(specs)
	ws := testWorkload(5)
	if err := d.Activate(d.Servers[0], 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(ws.VMs[0], d.Servers[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Fail(d.Servers[2], time.Minute); err != nil {
		t.Fatal(err)
	}
	got, err := Restore(specs, ws, jsonRoundTrip(t, d.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Servers[2].State() != Failed {
		t.Fatalf("restored state = %v, want failed", got.Servers[2].State())
	}
	if got.Failures != 1 {
		t.Fatalf("restored failures = %d", got.Failures)
	}
	if got.ActiveCount() != 1 || got.NumPlaced() != 1 {
		t.Fatal("restored placement drifted")
	}
}

// FuzzCrashRecoverSequence drives an arbitrary operation sequence —
// place/remove/migrate/activate/hibernate/fail/recover — against a small
// fleet and asserts that no sequence, however hostile, can corrupt the
// structural or runtime invariants: invalid transitions must come back as
// errors, never as panics or silently inconsistent state.
func FuzzCrashRecoverSequence(f *testing.F) {
	f.Add([]byte{5, 0, 6, 0, 5, 0})          // crash-recover-crash, the ISSUE sequence
	f.Add([]byte{3, 0, 0, 1, 5, 0, 6, 0})    // activate, place, crash with VM, recover
	f.Add([]byte{3, 0, 3, 1, 0, 2, 2, 3, 5}) // migrate then crash the destination
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := New(UniformFleet(4, 6, 2000))
		d.SetChecked(false) // violations must surface here as test failures, not panics
		vms := testWorkload(8)
		now := time.Duration(0)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%7, int(ops[i+1])
			s := d.Servers[arg%len(d.Servers)]
			vm := vms.VMs[arg%len(vms.VMs)]
			switch op {
			case 0:
				_ = d.Place(vm, s)
			case 1:
				_, _ = d.Remove(vm.ID)
			case 2:
				_ = d.Migrate(vm.ID, s)
			case 3:
				_ = d.Activate(s, now)
			case 4:
				_ = d.Hibernate(s)
			case 5:
				_, _ = d.Fail(s, now)
			case 6:
				_ = d.Recover(s, now)
			}
			now += time.Minute
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("op %d (%d on server %d): %v", i/2, op, s.ID, err)
			}
			if err := d.CheckRuntime(now); err != nil {
				t.Fatalf("op %d (%d on server %d): %v", i/2, op, s.ID, err)
			}
		}
	})
}
