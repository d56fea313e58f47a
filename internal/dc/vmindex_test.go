package dc

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestPlaceRejectsIDsOutsideIndex pins the index's ID domain, [0, 2^31):
// Place refuses an ID on either side of it and HostOf reports it unplaced,
// while both edges of the domain place normally.
func TestPlaceRejectsIDsOutsideIndex(t *testing.T) {
	d := twoServerDC()
	s0 := d.Servers[0]
	if err := d.Activate(s0, 0); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{-1, maxVMID + 1} {
		err := d.Place(constVM(id, 500), s0)
		if err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("Place(VM %d) = %v, want an out-of-domain error", id, err)
		}
		if _, ok := d.HostOf(id); ok {
			t.Errorf("HostOf(%d) reports a host", id)
		}
	}
	if d.NumPlaced() != 0 || s0.NumVMs() != 0 {
		t.Fatalf("rejected IDs left %d placed, %d hosted", d.NumPlaced(), s0.NumVMs())
	}
	for _, id := range []int{0, maxVMID} {
		if err := d.Place(constVM(id, 500), s0); err != nil {
			t.Fatalf("Place(VM %d): %v", id, err)
		}
		if host, ok := d.HostOf(id); !ok || host != s0 {
			t.Fatalf("HostOf(%d) = %v, %v after placing it on server 0", id, host, ok)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsCatchesStaleEntry marks placed an ID that no server
// hosts, once as a removal that forgot the index would leave it and once
// for an ID never placed on a fresh page: the index then counts more VMs
// than the servers hold.
func TestCheckInvariantsCatchesStaleEntry(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(d *DataCenter, s *Server)
		want    string
	}{
		{"left by a removal", func(d *DataCenter, s *Server) { s.removeAt(s.indexOf(2)) },
			"index has 2 VMs, servers hold 1"},
		{"never placed", func(d *DataCenter, s *Server) { d.byVM.set(4096, s.ID) },
			"index has 3 VMs, servers hold 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := twoServerDC()
			s0 := d.Servers[0]
			if err := d.Activate(s0, 0); err != nil {
				t.Fatal(err)
			}
			for _, id := range []int{1, 2} {
				if err := d.Place(constVM(id, 500), s0); err != nil {
					t.Fatal(err)
				}
			}
			tc.corrupt(d, s0)
			err := d.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want %q", err, tc.want)
			}
		})
	}
}

// BenchmarkPlaceFleet is the VM index's layer row: each op builds a
// 2,000-server fleet, places 20,000 VMs round-robin in ID order (the shape
// of the steady-band cell's pre-placement) and audits the result with
// CheckInvariants.
func BenchmarkPlaceFleet(b *testing.B) {
	const servers, nVMs = 2000, 20000
	specs := StandardFleet(servers)
	vms := make([]*trace.VM, nVMs)
	for i := range vms {
		vms[i] = constVM(i, 100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New(specs)
		for _, s := range d.Servers {
			if err := d.Activate(s, 0); err != nil {
				b.Fatal(err)
			}
		}
		for j, vm := range vms {
			if err := d.Place(vm, d.Servers[j%servers]); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
	}
}
