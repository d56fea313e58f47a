package dc

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/trace"
)

func buildLoadedDC(t *testing.T) (*DataCenter, []Spec, *trace.Set) {
	t.Helper()
	specs := StandardFleet(6)
	d := New(specs)
	ws := &trace.Set{RefCapacityMHz: 2400}
	id := 0
	for i := 0; i < 4; i++ {
		s := d.Servers[i]
		if err := d.Activate(s, time.Duration(i)*time.Minute); err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= i; k++ {
			vm := constVM(id, 500+float64(100*k))
			vm.RAMMB = float64(256 * (k + 1))
			ws.VMs = append(ws.VMs, vm)
			if err := d.Place(vm, s); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	// A drained-and-hibernated server leaves nonzero counters behind.
	if err := d.Hibernate(mustDrain(t, d, d.Servers[0])); err != nil {
		t.Fatal(err)
	}
	return d, specs, ws
}

func mustDrain(t *testing.T, d *DataCenter, s *Server) *Server {
	t.Helper()
	for _, vm := range s.VMs() {
		if err := d.Migrate(vm.ID, d.Servers[1]); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// jsonRoundTrip encodes snap as JSON and decodes it again, the way a
// checkpoint file carries it.
func jsonRoundTrip(t *testing.T, snap Snapshot) Snapshot {
	t.Helper()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var out Snapshot
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSnapshotRoundTrip(t *testing.T) {
	d, specs, ws := buildLoadedDC(t)
	restored, err := Restore(specs, ws, jsonRoundTrip(t, d.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.ActiveCount() != d.ActiveCount() {
		t.Fatalf("active %d != %d", restored.ActiveCount(), d.ActiveCount())
	}
	if restored.NumPlaced() != d.NumPlaced() {
		t.Fatalf("placed %d != %d", restored.NumPlaced(), d.NumPlaced())
	}
	if restored.Activations != d.Activations || restored.Hibernations != d.Hibernations {
		t.Fatalf("counters %d/%d != %d/%d",
			restored.Activations, restored.Hibernations, d.Activations, d.Hibernations)
	}
	for _, vm := range ws.VMs {
		orig, okO := d.HostOf(vm.ID)
		rest, okR := restored.HostOf(vm.ID)
		if okO != okR || (okO && orig.ID != rest.ID) {
			t.Fatalf("VM %d placement differs after restore", vm.ID)
		}
	}
	// State-derived quantities must match too (RAM accounting, timings).
	for i, s := range d.Servers {
		r := restored.Servers[i]
		if s.State() != r.State() || s.UsedRAMMB() != r.UsedRAMMB() {
			t.Fatalf("server %d state/RAM differs", i)
		}
		if s.State() == Active && s.ActivatedAt() != r.ActivatedAt() {
			t.Fatalf("server %d ActivatedAt differs: %v vs %v", i, s.ActivatedAt(), r.ActivatedAt())
		}
	}
}

func TestRestoreRejectsCorruption(t *testing.T) {
	d, specs, ws := buildLoadedDC(t)
	base := d.Snapshot()

	short := base
	short.Servers = short.Servers[:len(short.Servers)-1]
	if _, err := Restore(specs, ws, short); err == nil {
		t.Error("server-count mismatch accepted")
	}

	unknown := d.Snapshot()
	unknown.Servers[1].VMs = append(unknown.Servers[1].VMs, 9999)
	if _, err := Restore(specs, ws, unknown); err == nil {
		t.Error("unknown VM accepted")
	}

	sleeping := d.Snapshot()
	for i := range sleeping.Servers {
		if len(sleeping.Servers[i].VMs) > 0 {
			sleeping.Servers[i].Active = false
			break
		}
	}
	if _, err := Restore(specs, ws, sleeping); err == nil {
		t.Error("VMs on hibernated server accepted")
	}

	double := d.Snapshot()
	var donor int
	for i := range double.Servers {
		if len(double.Servers[i].VMs) > 0 {
			donor = i
			break
		}
	}
	vm := double.Servers[donor].VMs[0]
	for i := range double.Servers {
		if i != donor && double.Servers[i].Active {
			double.Servers[i].VMs = append(double.Servers[i].VMs, vm)
			break
		}
	}
	if _, err := Restore(specs, ws, double); err == nil {
		t.Error("double placement accepted")
	}
}
