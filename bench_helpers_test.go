package repro

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/trace"
)

// dcFromWorkload builds a 400-server standard fleet and places every VM of
// the workload through the policy's assignment procedure at t=0. It fails
// unless the placement spread the load: more than one active server, and
// none hosting more than three times the mean per active server.
func dcFromWorkload(b *testing.B, ws *trace.Set, pol *ecocloud.Policy) *dc.DataCenter {
	b.Helper()
	d := dc.New(dc.StandardFleet(400))
	for _, vm := range ws.VMs {
		pol.OnArrival(envAt(d, 0), vm)
	}
	if err := d.CheckInvariants(); err != nil {
		b.Fatal(err)
	}
	active, most := d.ActiveCount(), 0
	for _, s := range d.Servers {
		most = max(most, s.NumVMs())
	}
	if active < 2 || most > 3*len(ws.VMs)/active {
		b.Fatalf("fixture not loaded: %d active servers, the busiest hosts %d of %d VMs", active, most, len(ws.VMs))
	}
	return d
}

// envAt wraps a data center in a throwaway policy environment at virtual
// time now.
func envAt(d *dc.DataCenter, now time.Duration) cluster.Env {
	return cluster.Env{Now: now, DC: d, Rec: cluster.NewRecorder(30 * time.Minute)}
}

// probeVM is a constant-demand VM used to exercise one invitation round.
func probeVM(id int, mhz float64) *trace.VM {
	return &trace.VM{ID: id, Start: 0, End: 1000 * time.Hour, Epoch: 1000 * time.Hour, Demand: []float64{mhz}}
}
