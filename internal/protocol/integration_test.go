package protocol

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/netsim"
	"repro/internal/obs"
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

// TestZeroLatencyProtocolMatchesClusterDriver holds the protocol on a
// zero-latency fabric to the cluster driver exactly: over Poisson churn
// days (30 servers, 8 h, 300 arrivals/h, rng seed 5 on both sides) every
// place and migrate journal line must match, in order. Broadcast is held
// with migration off and on, and a subset of 8 with migration off.
// Invitation groups are left out: with migration off the driver's control
// tick still hibernates drained servers while the protocol runs no scan,
// so the two wake from different candidates; a subset with migration on
// drifts late in some days too (DESIGN.md "One ecoCloud core").
func TestZeroLatencyProtocolMatchesClusterDriver(t *testing.T) {
	const servers = 30
	cases := []struct {
		name      string
		migration bool
		subset    int
	}{
		{"broadcast", false, 0},
		{"broadcast-migration", true, 0},
		{"subset8", false, 8},
	}
	for _, seed := range []uint64{3, 7, 11, 21} {
		churn := trace.DefaultChurnConfig()
		churn.Horizon = 8 * time.Hour
		churn.InitialVMs = 0
		churn.ArrivalPerHour = 300
		ws, err := trace.GenerateChurn(churn, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				ecfg := ecocloud.DefaultConfig()
				ecfg.DisableMigration = !tc.migration
				ecfg.InviteSubset = tc.subset
				pol, err := ecocloud.New(ecfg, 5)
				if err != nil {
					t.Fatal(err)
				}
				var driverJournal bytes.Buffer
				if _, err := cluster.Run(cluster.RunConfig{
					Specs:           dc.UniformFleet(servers, 6, 2000),
					Workload:        ws,
					Horizon:         churn.Horizon,
					ControlInterval: 5 * time.Minute,
					SampleInterval:  30 * time.Minute,
					PowerModel:      dc.DefaultPowerModel(),
				}, pol, cluster.WithObs(obs.NewRecorder(nil, obs.NewJournal(&driverJournal)))); err != nil {
					t.Fatal(err)
				}

				var protoJournal bytes.Buffer
				pcfg := DefaultConfig()
				pcfg.Latency = netsim.LatencyModel{}
				pcfg.EnableMigration = tc.migration
				pcfg.InviteSubset = tc.subset
				pcfg.Obs = obs.NewRecorder(nil, obs.NewJournal(&protoJournal))
				c, err := New(pcfg, dc.UniformFleet(servers, 6, 2000), 5)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.RunDay(ws.VMs, churn.Horizon); err != nil {
					t.Fatal(err)
				}

				want, got := placementLines(&driverJournal), placementLines(&protoJournal)
				for i := 0; i < len(want) && i < len(got); i++ {
					if want[i] != got[i] {
						t.Fatalf("line %d of %d differs:\ndriver   %s\nprotocol %s", i+1, len(want), want[i], got[i])
					}
				}
				if len(want) != len(got) {
					t.Fatalf("driver journaled %d place/migrate lines, protocol %d", len(want), len(got))
				}
				migrations := 0
				for _, line := range want {
					if strings.Contains(line, `"kind":"migrate"`) {
						migrations++
					}
				}
				if tc.migration && migrations == 0 {
					t.Fatal("no migration in a migration-on day: the comparison is vacuous")
				}
			})
		}
	}
}

// placementLines returns the journal's place and migrate lines, in order.
func placementLines(journal *bytes.Buffer) []string {
	var lines []string
	for _, line := range strings.Split(journal.String(), "\n") {
		if strings.Contains(line, `"kind":"place"`) || strings.Contains(line, `"kind":"migrate"`) {
			lines = append(lines, line)
		}
	}
	return lines
}
