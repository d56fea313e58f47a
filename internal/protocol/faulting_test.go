package protocol

import (
	"testing"
	"time"

	"repro/internal/dc"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// shortVM is a VM with a bounded lifetime, for expiry-sensitive tests.
func shortVM(id int, mhz float64, end time.Duration) *trace.VM {
	vm := constVM(id, mhz)
	vm.End = end
	return vm
}

// TestDoubleWakeReusesPendingServer is the regression test for the in-flight
// wake bug: a hibernated server with a wake+assign on the wire still reports
// Hibernated, so a second placement deciding within the delivery window used
// to wake it "again" — two Wakes for one power-on. The second placement must
// piggyback on the pending wake instead.
func TestDoubleWakeReusesPendingServer(t *testing.T) {
	cfg := fixedConfig()
	cfg.Latency = netsim.LatencyModel{Base: time.Second} // a wide delivery window
	c, err := New(cfg, dc.UniformFleet(1, 6, 2000), 1)
	if err != nil {
		t.Fatal(err)
	}
	c.PlaceVM(constVM(1, 500))
	c.PlaceVM(constVM(2, 500)) // back-to-back: the wake is still in flight
	c.Engine().Run(0)
	if c.Stats.Placements != 2 || c.DC().NumPlaced() != 2 {
		t.Fatalf("stats = %+v", c.Stats)
	}
	if c.Stats.Wakes != 1 {
		t.Fatalf("wakes = %d, want 1 (double-wake regression)", c.Stats.Wakes)
	}
	if c.Stats.WakeReuses != 1 {
		t.Fatalf("wake reuses = %d, want 1", c.Stats.WakeReuses)
	}
	if c.DC().Activations != 1 {
		t.Fatalf("activations = %d, want 1", c.DC().Activations)
	}
	if len(c.pendingWakes) != 0 {
		t.Fatalf("pending wakes leaked: %d", len(c.pendingWakes))
	}
}

// TestDoubleWakeHighMigrationRidesPendingWake: a high migration that finds
// no acceptor and picks a server whose placement wake is still powering on
// must ride that wake — no second wake frame, no second power-on counted.
func TestDoubleWakeHighMigrationRidesPendingWake(t *testing.T) {
	c, err := New(migConfig(), dc.UniformFleet(2, 6, 2000), 9)
	if err != nil {
		t.Fatal(err)
	}
	activateLoaded(t, c, 1, 0)
	a := c.DC().Servers[0]
	for id := 1; id <= 2; id++ { // u = 1.0: no room, and overloaded
		if err := c.DC().Place(constVM(id, 6000), a); err != nil {
			t.Fatal(err)
		}
	}
	setup := c.DC().Activations
	c.SetWakeGate(&gateScript{delay: 20 * time.Minute})
	c.StartMigrationScan()
	// One second before the first scan, a placement starts waking server 1.
	c.Engine().Schedule(time.Minute-time.Second, "arrival", func(*sim.Engine) { c.PlaceVM(constVM(3, 500)) })
	c.Engine().Run(time.Hour)
	if c.Stats.Wakes != 1 || c.Stats.WakeReuses != 1 {
		t.Fatalf("wakes = %d reuses = %d, want 1/1 (one power-on, counted once)", c.Stats.Wakes, c.Stats.WakeReuses)
	}
	if c.Stats.MigrationsHigh == 0 || c.Stats.Placements != 1 {
		t.Fatalf("stats = %+v, want the migration and the placement both landed", c.Stats)
	}
	if got := c.DC().Activations - setup; got != 1 {
		t.Fatalf("activations = %d, want 1", got)
	}
	if len(c.pendingWakes) != 0 {
		t.Fatalf("pending wakes leaked: %d", len(c.pendingWakes))
	}
	if err := c.DC().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleWakePrefersFreshServer: when a fresh hibernated server fits, the
// second placement wakes it rather than overcommitting the pending one.
func TestDoubleWakePrefersFreshServer(t *testing.T) {
	cfg := fixedConfig()
	cfg.Latency = netsim.LatencyModel{Base: time.Second}
	c, err := New(cfg, dc.UniformFleet(2, 6, 2000), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Each VM nearly fills a server under Ta: no room to piggyback.
	c.PlaceVM(constVM(1, 10_000))
	c.PlaceVM(constVM(2, 10_000))
	c.Engine().Run(0)
	if c.Stats.Wakes != 2 || c.Stats.WakeReuses != 0 {
		t.Fatalf("wakes = %d reuses = %d, want 2/0", c.Stats.Wakes, c.Stats.WakeReuses)
	}
	if c.DC().ActiveCount() != 2 || c.DC().NumPlaced() != 2 {
		t.Fatal("VMs not spread over two woken servers")
	}
}

// TestDoubleWakeOvercommitFallback: with a single server whose pending
// reservation leaves no room and nothing else to wake, the placement
// overcommits the in-flight wake (a saturation) instead of waking twice.
func TestDoubleWakeOvercommitFallback(t *testing.T) {
	cfg := fixedConfig()
	cfg.Latency = netsim.LatencyModel{Base: time.Second}
	c, err := New(cfg, dc.UniformFleet(1, 6, 2000), 1)
	if err != nil {
		t.Fatal(err)
	}
	c.PlaceVM(constVM(1, 6000))
	c.PlaceVM(constVM(2, 6000)) // 12000 reserved > Ta*12000
	c.Engine().Run(0)
	if c.Stats.Wakes != 1 || c.Stats.Saturations != 1 {
		t.Fatalf("wakes = %d saturations = %d, want 1/1", c.Stats.Wakes, c.Stats.Saturations)
	}
	if c.DC().Activations != 1 || c.DC().NumPlaced() != 2 {
		t.Fatalf("activations = %d placed = %d", c.DC().Activations, c.DC().NumPlaced())
	}
}

func TestCrashEvacuationAndReplacement(t *testing.T) {
	c, err := New(fixedConfig(), dc.UniformFleet(2, 6, 2000), 3)
	if err != nil {
		t.Fatal(err)
	}
	c.PlaceVM(constVM(1, 500))
	c.Engine().Run(0)
	host, _ := c.DC().HostOf(1)
	evicted := c.CrashServer(host.ID)
	if len(evicted) != 1 || evicted[0].ID != 1 {
		t.Fatalf("evicted = %v", evicted)
	}
	if again := c.CrashServer(host.ID); again != nil {
		t.Fatalf("double crash returned %v", again)
	}
	for _, vm := range evicted {
		c.ReplaceVM(vm)
	}
	c.Engine().Run(0)
	newHost, ok := c.DC().HostOf(1)
	if !ok || newHost.ID == host.ID {
		t.Fatalf("re-placement landed on %v", newHost)
	}
	c.RecoverServer(host.ID)
	if c.DC().Servers[host.ID].State() != dc.Hibernated {
		t.Fatal("crashed server did not recover to hibernated")
	}
	if c.DC().Failures != 1 || c.DC().Recoveries != 1 {
		t.Fatalf("failure counters = %d/%d", c.DC().Failures, c.DC().Recoveries)
	}
}

// TestCrashedInviteeIsSilent: a server that crashes with an invitation in
// flight never replies; RoundTimeout closes the round on whoever answered.
func TestCrashedInviteeIsSilent(t *testing.T) {
	cfg := fixedConfig()
	cfg.RoundTimeout = 10 * time.Millisecond
	c, err := New(cfg, dc.UniformFleet(2, 6, 2000), 4)
	if err != nil {
		t.Fatal(err)
	}
	activateLoaded(t, c, 2, 0.675)
	c.PlaceVM(constVM(1, 100))
	c.Engine().Schedule(500*time.Microsecond, "crash", func(*sim.Engine) {
		c.CrashServer(0) // after the invite went out, before it lands
	})
	c.Engine().Run(0)
	if c.Stats.Placements != 1 {
		t.Fatalf("placements = %d (round hung on the dead invitee?)", c.Stats.Placements)
	}
	if host, _ := c.DC().HostOf(1); host == nil || host.ID != 1 {
		t.Fatalf("VM landed on %v, want the surviving server", host)
	}
}

// gateScript is a WakeGate replaying a fixed outcome sequence.
type gateScript struct {
	outcomes []bool
	delay    time.Duration
	calls    int
}

func (g *gateScript) WakeOutcome(int) (bool, time.Duration) {
	ok := true
	if g.calls < len(g.outcomes) {
		ok = g.outcomes[g.calls]
	}
	g.calls++
	return ok, g.delay
}

func TestWakeFailureRetriesPlacement(t *testing.T) {
	cfg := fixedConfig()
	cfg.AssignRetry = 5 * time.Second
	c, err := New(cfg, dc.UniformFleet(1, 6, 2000), 5)
	if err != nil {
		t.Fatal(err)
	}
	c.SetWakeGate(&gateScript{outcomes: []bool{false}}) // first wake is a dud
	c.PlaceVM(constVM(1, 500))
	c.Engine().Run(0)
	if c.Stats.WakeFailures != 1 || c.Stats.Replacements != 1 {
		t.Fatalf("failures = %d replacements = %d, want 1/1",
			c.Stats.WakeFailures, c.Stats.Replacements)
	}
	if c.Stats.Placements != 1 || c.DC().NumPlaced() != 1 {
		t.Fatal("VM never placed after the wake failure")
	}
	if c.Stats.Wakes != 2 {
		t.Fatalf("wakes = %d, want 2 (failed + retried)", c.Stats.Wakes)
	}
}

func TestWakeDelaySpikesPlacementLatency(t *testing.T) {
	cfg := fixedConfig()
	c, err := New(cfg, dc.UniformFleet(1, 6, 2000), 6)
	if err != nil {
		t.Fatal(err)
	}
	c.SetWakeGate(&gateScript{delay: 2 * time.Minute})
	c.PlaceVM(constVM(1, 500))
	c.Engine().Run(0)
	if c.Stats.Placements != 1 {
		t.Fatalf("placements = %d", c.Stats.Placements)
	}
	if got := c.Stats.MeanLatency(); got < 2*time.Minute {
		t.Fatalf("latency = %v, want the 2m power-on spike included", got)
	}
}

// TestWakeDelayOutlivesVM: a VM that expires while its server slowly powers
// on is simply never placed; the books stay clean.
func TestWakeDelayOutlivesVM(t *testing.T) {
	cfg := fixedConfig()
	c, err := New(cfg, dc.UniformFleet(1, 6, 2000), 7)
	if err != nil {
		t.Fatal(err)
	}
	c.SetWakeGate(&gateScript{delay: time.Hour})
	c.PlaceVM(shortVM(1, 500, time.Minute))
	c.Engine().Run(0)
	if c.Stats.Placements != 0 || c.DC().NumPlaced() != 0 {
		t.Fatalf("expired VM placed: %+v", c.Stats)
	}
	if len(c.pendingWakes) != 0 {
		t.Fatal("pending wake leaked past the VM's lifetime")
	}
}

// TestLossyFabricPlacesEveryVM is the graceful-degradation end-to-end check:
// with half the deliveries dropped and some duplicated, timeouts and retries
// must still land every VM, with no hangs and no panics.
func TestLossyFabricPlacesEveryVM(t *testing.T) {
	cfg := fixedConfig()
	cfg.Impairments = netsim.Impairments{DropProb: 0.5, DupProb: 0.2}
	cfg.RoundTimeout = 50 * time.Millisecond
	cfg.AssignRetry = time.Second
	c, err := New(cfg, dc.UniformFleet(10, 6, 2000), 8)
	if err != nil {
		t.Fatal(err)
	}
	const vms = 20
	for i := 0; i < vms; i++ {
		c.PlaceVM(constVM(i, 800))
	}
	c.Engine().Run(0)
	if c.DC().NumPlaced() != vms {
		t.Fatalf("placed %d of %d under loss", c.DC().NumPlaced(), vms)
	}
	if err := c.DC().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Duplicated assigns must not double-place: every VM hosted exactly once
	// is already asserted by CheckInvariants' index audit; the drop counter
	// proves the fabric actually was hostile.
	if c.net.(*netsim.Network).Dropped == 0 {
		t.Fatal("fabric dropped nothing; the test proved nothing")
	}
}

func TestLossyConfigNeedsRoundTimeout(t *testing.T) {
	cfg := fixedConfig()
	cfg.Impairments = netsim.Impairments{DropProb: 0.1}
	if _, err := New(cfg, dc.UniformFleet(2, 6, 2000), 1); err == nil {
		t.Fatal("lossy reply-counting config without RoundTimeout accepted")
	}
	cfg.SilentReject = true // the decision window already bounds rounds
	if _, err := New(cfg, dc.UniformFleet(2, 6, 2000), 1); err != nil {
		t.Fatal(err)
	}
}

func TestMeanMigrationLatencyZeroGuard(t *testing.T) {
	if got := (Stats{}).MeanMigrationLatency(); got != 0 {
		t.Fatalf("empty mean = %v", got)
	}
	s := Stats{MigrationsLow: 2, MigrationsHigh: 2, MigrationLatency: 8 * time.Second}
	if got := s.MeanMigrationLatency(); got != 2*time.Second {
		t.Fatalf("mean = %v, want 2s", got)
	}
}

// TestAbortedMigrationDropsPendingStart: a low migration with no destination
// aborts without polluting the latency books or leaking manager state.
func TestAbortedMigrationDropsPendingStart(t *testing.T) {
	cfg := fixedConfig()
	cfg.EnableMigration = true
	c, err := New(cfg, dc.UniformFleet(1, 6, 2000), 9)
	if err != nil {
		t.Fatal(err)
	}
	activateLoaded(t, c, 1, 0.1) // far below Tl, grace long expired
	c.StartMigrationScan()
	// One second past the last scan tick, so its MIGREQ resolves on the wire.
	c.Engine().Run(2*time.Hour + time.Second)
	if c.Stats.MigrationsAborted == 0 {
		t.Fatal("no migration ever attempted; the scan is broken")
	}
	if c.Stats.MigrationLatency != 0 {
		t.Fatalf("aborted migrations leaked latency %v", c.Stats.MigrationLatency)
	}
	if c.Stats.MeanMigrationLatency() != 0 {
		t.Fatalf("mean over zero completions = %v", c.Stats.MeanMigrationLatency())
	}
	if len(c.pendingMig) != 0 || len(c.inflight) != 0 {
		t.Fatalf("leaked pendingMig=%d inflight=%d", len(c.pendingMig), len(c.inflight))
	}
}
