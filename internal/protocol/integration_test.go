package protocol

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/trace"
)

// The message-level protocol and the function-call cluster driver implement
// the same algorithm; on the same churn workload their consolidation
// outcomes must agree to within noise, even though RNG consumption differs.
func TestProtocolMatchesClusterDriver(t *testing.T) {
	churn := trace.DefaultChurnConfig()
	churn.Horizon = 8 * time.Hour
	churn.InitialVMs = 0 // both worlds start cold and place through arrivals
	churn.ArrivalPerHour = 300
	ws, err := trace.GenerateChurn(churn, 21)
	if err != nil {
		t.Fatal(err)
	}
	const servers = 30

	// World 1: the cluster driver with the ecocloud policy, migration off
	// (the protocol comparison isolates the assignment procedure; migration
	// cadences differ too much for a tight match).
	ecfg := ecocloud.DefaultConfig()
	ecfg.DisableMigration = true
	pol, err := ecocloud.New(ecfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	driverRes, err := cluster.Run(cluster.RunConfig{
		Specs:           dc.UniformFleet(servers, 6, 2000),
		Workload:        ws,
		Horizon:         churn.Horizon,
		ControlInterval: 5 * time.Minute,
		SampleInterval:  30 * time.Minute,
		PowerModel:      dc.DefaultPowerModel(),
	}, pol)
	if err != nil {
		t.Fatal(err)
	}

	// World 2: the same arrivals/departures over wire messages.
	pcfg := DefaultConfig()
	c, err := New(pcfg, dc.UniformFleet(servers, 6, 2000), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunDay(ws.VMs, churn.Horizon); err != nil {
		t.Fatal(err)
	}

	if c.Stats.Placements != len(ws.VMs) {
		t.Fatalf("protocol placed %d of %d", c.Stats.Placements, len(ws.VMs))
	}
	// Compare the demand actually hosted and the number of servers carrying
	// it. Active counts can differ by drained-but-not-hibernated servers in
	// the protocol world (no scan running), so compare servers with load.
	loaded := 0
	for _, s := range c.DC().Servers {
		if s.NumVMs() > 0 {
			loaded++
		}
	}
	driverLoaded := driverRes.FinalActiveServers
	diff := loaded - driverLoaded
	if diff < 0 {
		diff = -diff
	}
	if diff > servers/4 {
		t.Fatalf("protocol consolidation (%d loaded servers) far from driver (%d active)",
			loaded, driverLoaded)
	}
}
