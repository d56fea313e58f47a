package ecocloud

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/rng"
	"repro/internal/trace"
)

func constVM(id int, mhz float64) *trace.VM {
	return &trace.VM{ID: id, Start: 0, End: 1000 * time.Hour, Epoch: 1000 * time.Hour, Demand: []float64{mhz}}
}

func newEnv(d *dc.DataCenter, now time.Duration) cluster.Env {
	return cluster.Env{Now: now, DC: d, Rec: cluster.NewRecorder(30 * time.Minute)}
}

func mustPolicy(t *testing.T, cfg Config, seed uint64) *Policy {
	t.Helper()
	p, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewRejectsBadConfig(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Ta = 0 },
		func(c *Config) { c.Ta = 1.2 },
		func(c *Config) { c.P = 0 },
		func(c *Config) { c.Tl = -0.1 },
		func(c *Config) { c.Th = 1.0 },
		func(c *Config) { c.Tl = 0.96 }, // above Th
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Beta = -1 },
		func(c *Config) { c.Grace = -time.Second },
		func(c *Config) { c.InviteSubset = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg, 1); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestMigrationOffRelaxesMigrationParams(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableMigration = true
	cfg.Alpha = 0 // invalid for migration, irrelevant when disabled
	if _, err := New(cfg, 1); err != nil {
		t.Fatalf("migration-disabled config rejected: %v", err)
	}
}

func TestArrivalOnEmptyFleetWakesServer(t *testing.T) {
	d := dc.New(dc.UniformFleet(4, 6, 2000))
	p := mustPolicy(t, DefaultConfig(), 1)
	env := newEnv(d, 0)
	p.OnArrival(env, constVM(1, 500))
	if d.ActiveCount() != 1 {
		t.Fatalf("active servers = %d, want 1", d.ActiveCount())
	}
	if d.Activations != 1 {
		t.Fatalf("activations = %d, want 1", d.Activations)
	}
	host, ok := d.HostOf(1)
	if !ok || host.NumVMs() != 1 {
		t.Fatal("VM not placed on the woken server")
	}
}

func TestGraceServerAcceptsFollowUps(t *testing.T) {
	d := dc.New(dc.UniformFleet(4, 6, 2000))
	p := mustPolicy(t, DefaultConfig(), 2)
	env := newEnv(d, 0)
	// Ten small arrivals within the grace window: the single woken server
	// should take them all (fa(0)=0 would otherwise reject an empty server).
	for i := 0; i < 10; i++ {
		env.Now = time.Duration(i) * time.Minute
		p.OnArrival(env, constVM(i, 300))
	}
	if d.ActiveCount() != 1 {
		t.Fatalf("active servers = %d, want 1 (grace should concentrate arrivals)", d.ActiveCount())
	}
	if d.NumPlaced() != 10 {
		t.Fatalf("placed = %d, want 10", d.NumPlaced())
	}
}

func TestNoAcceptAboveTa(t *testing.T) {
	d := dc.New(dc.UniformFleet(2, 6, 2000)) // 12000 MHz each
	p := mustPolicy(t, DefaultConfig(), 3)
	env := newEnv(d, 0)
	s0 := d.Servers[0]
	if err := d.Activate(s0, 0); err != nil {
		t.Fatal(err)
	}
	// Load s0 to u = 0.92 > Ta = 0.90; it is long out of grace.
	if err := d.Place(constVM(100, 11040), s0); err != nil {
		t.Fatal(err)
	}
	env.Now = 2 * time.Hour
	p.OnArrival(env, constVM(1, 500))
	host, _ := d.HostOf(1)
	if host == s0 {
		t.Fatal("VM assigned to a server above Ta")
	}
	if d.ActiveCount() != 2 {
		t.Fatalf("active = %d, want 2 (a server must be woken)", d.ActiveCount())
	}
}

func TestSaturationFallsBackToLeastUtilized(t *testing.T) {
	d := dc.New(dc.UniformFleet(2, 6, 2000))
	p := mustPolicy(t, DefaultConfig(), 4)
	env := newEnv(d, 0)
	// Both servers active and above Ta; nothing to wake.
	if err := d.Activate(d.Servers[0], 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(d.Servers[1], 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(constVM(100, 11500), d.Servers[0]); err != nil { // u ~0.958
		t.Fatal(err)
	}
	if err := d.Place(constVM(101, 11100), d.Servers[1]); err != nil { // u ~0.925
		t.Fatal(err)
	}
	env.Now = 2 * time.Hour
	p.OnArrival(env, constVM(1, 200))
	if env.Rec.Saturations != 1 {
		t.Fatalf("saturations = %d, want 1", env.Rec.Saturations)
	}
	host, _ := d.HostOf(1)
	if host != d.Servers[1] {
		t.Fatal("fallback should pick the least-utilized active server")
	}
}

func TestControlHibernatesEmptyServerAfterGrace(t *testing.T) {
	d := dc.New(dc.UniformFleet(3, 6, 2000))
	p := mustPolicy(t, DefaultConfig(), 5)
	env := newEnv(d, 0)
	if err := d.Activate(d.Servers[0], 0); err != nil {
		t.Fatal(err)
	}
	// During grace the empty server stays up.
	env.Now = 10 * time.Minute
	p.OnControl(env)
	if d.Servers[0].State() != dc.Active {
		t.Fatal("server hibernated during its grace period")
	}
	// After grace it goes to sleep.
	env.Now = time.Hour
	p.OnControl(env)
	if d.Servers[0].State() != dc.Hibernated {
		t.Fatal("empty server not hibernated after grace")
	}
	if d.Hibernations != 1 {
		t.Fatalf("hibernations = %d, want 1", d.Hibernations)
	}
}

// runControls advances the clock one control tick at a time until pred holds
// or the budget runs out, returning whether pred held.
func runControls(p *Policy, env *cluster.Env, ticks int, pred func() bool) bool {
	for i := 0; i < ticks; i++ {
		env.Now += 5 * time.Minute
		p.OnControl(*env)
		if pred() {
			return true
		}
	}
	return pred()
}

func TestLowMigrationDrainsServer(t *testing.T) {
	d := dc.New(dc.UniformFleet(3, 6, 2000)) // 12000 MHz each
	cfg := DefaultConfig()
	p := mustPolicy(t, cfg, 6)
	env := newEnv(d, 0)
	a, b := d.Servers[0], d.Servers[1]
	if err := d.Activate(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(b, 0); err != nil {
		t.Fatal(err)
	}
	// a: u = 0.10 (below Tl = 0.50); b: u = 0.60 (inside the band, accepts).
	if err := d.Place(constVM(1, 1200), a); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(constVM(2, 7200), b); err != nil {
		t.Fatal(err)
	}
	env.Now = time.Hour // everyone out of grace
	moved := runControls(p, &env, 50, func() bool {
		host, _ := d.HostOf(1)
		return host == b
	})
	if !moved {
		t.Fatal("low migration never moved the VM off the under-utilized server")
	}
	if a.State() != dc.Hibernated {
		t.Fatal("drained server was not hibernated")
	}
	if env.Rec.MigrationCount(cluster.MigrationLow) == 0 {
		t.Fatal("low migration not recorded")
	}
	if env.Rec.MigrationCount(cluster.MigrationHigh) != 0 {
		t.Fatal("spurious high migration recorded")
	}
}

func TestLowMigrationNeverWakesServers(t *testing.T) {
	d := dc.New(dc.UniformFleet(4, 6, 2000))
	cfg := DefaultConfig()
	p := mustPolicy(t, cfg, 7)
	env := newEnv(d, 0)
	a := d.Servers[0]
	if err := d.Activate(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(constVM(1, 1200), a); err != nil { // u = 0.10
		t.Fatal(err)
	}
	env.Now = time.Hour
	runControls(p, &env, 50, func() bool { return false })
	if d.Activations != 1 { // only the manual one above... Activate() via dc counts
		t.Fatalf("activations = %d: a low migration woke a server", d.Activations)
	}
	if host, _ := d.HostOf(1); host != a {
		t.Fatal("VM moved despite no destination being available")
	}
}

func TestHighMigrationRelievesOverload(t *testing.T) {
	d := dc.New(dc.UniformFleet(3, 6, 2000))
	cfg := DefaultConfig()
	p := mustPolicy(t, cfg, 8)
	env := newEnv(d, 0)
	a, b := d.Servers[0], d.Servers[1]
	if err := d.Activate(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(b, 0); err != nil {
		t.Fatal(err)
	}
	// a: two VMs totalling u = 0.99 (> Th = 0.95); b: u = 0.50.
	if err := d.Place(constVM(1, 6000), a); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(constVM(2, 5880), a); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(constVM(3, 6000), b); err != nil {
		t.Fatal(err)
	}
	uBefore := a.UtilizationAt(env.Now)
	env.Now = time.Hour
	relieved := runControls(p, &env, 50, func() bool { return a.NumVMs() < 2 })
	if !relieved {
		t.Fatal("high migration never fired on an overloaded server")
	}
	if env.Rec.MigrationCount(cluster.MigrationHigh) == 0 {
		t.Fatal("high migration not recorded")
	}
	if a.UtilizationAt(env.Now) >= uBefore {
		t.Fatal("source utilization did not drop")
	}
}

func TestHighMigrationPrefersLessLoadedDestination(t *testing.T) {
	// Destination acceptance runs under Ta' = 0.9*u_source, so any server at
	// or above that is ineligible. With b at 0.93 (>0.9*1.0) and c at 0.40,
	// the VM must land on c (or a woken server), never on b.
	d := dc.New(dc.UniformFleet(4, 6, 2000))
	cfg := DefaultConfig()
	p := mustPolicy(t, cfg, 9)
	env := newEnv(d, 0)
	a, b, c := d.Servers[0], d.Servers[1], d.Servers[2]
	for _, s := range []*dc.Server{a, b, c} {
		if err := d.Activate(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Place(constVM(1, 6000), a); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(constVM(2, 6600), a); err != nil { // a: u = 1.05
		t.Fatal(err)
	}
	if err := d.Place(constVM(3, 11160), b); err != nil { // b: u = 0.93
		t.Fatal(err)
	}
	if err := d.Place(constVM(4, 4800), c); err != nil { // c: u = 0.40
		t.Fatal(err)
	}
	env.Now = time.Hour
	relieved := runControls(p, &env, 100, func() bool { return a.NumVMs() < 2 })
	if !relieved {
		t.Fatal("overload never relieved")
	}
	if b.NumVMs() != 1 {
		t.Fatal("VM migrated onto a nearly-full server (ping-pong guard failed)")
	}
}

func TestDisableMigration(t *testing.T) {
	d := dc.New(dc.UniformFleet(3, 6, 2000))
	cfg := DefaultConfig()
	cfg.DisableMigration = true
	p := mustPolicy(t, cfg, 11)
	env := newEnv(d, 0)
	a, b := d.Servers[0], d.Servers[1]
	if err := d.Activate(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(b, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(constVM(1, 1200), a); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(constVM(2, 7200), b); err != nil {
		t.Fatal(err)
	}
	env.Now = time.Hour
	runControls(p, &env, 20, func() bool { return false })
	if env.Rec.MigrationCount(cluster.MigrationLow)+env.Rec.MigrationCount(cluster.MigrationHigh) != 0 {
		t.Fatal("migrations occurred while disabled")
	}
	// Empty-server hibernation still runs in migration-off mode.
	if host, _ := d.HostOf(1); host != a {
		t.Fatal("VM moved with migration disabled")
	}
}

func placementsSignature(d *dc.DataCenter, n int) []int {
	sig := make([]int, n)
	for i := 0; i < n; i++ {
		if s, ok := d.HostOf(i); ok {
			sig[i] = s.ID
		} else {
			sig[i] = -1
		}
	}
	return sig
}

func runScenario(t *testing.T, cfg Config, seed uint64) []int {
	t.Helper()
	d := dc.New(dc.StandardFleet(12))
	p, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	env := newEnv(d, 0)
	const n = 80
	for i := 0; i < n; i++ {
		env.Now = time.Duration(i) * 2 * time.Minute
		p.OnArrival(env, constVM(i, 300+float64(i%7)*250))
		if i%5 == 4 {
			p.OnControl(env)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return placementsSignature(d, n)
}

func TestPolicyDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a := runScenario(t, cfg, 77)
	b := runScenario(t, cfg, 77)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement of VM %d differs across identical runs: %d vs %d", i, a[i], b[i])
		}
	}
	c := runScenario(t, cfg, 78)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical placements (suspicious)")
	}
}

func TestInviteSubset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InviteSubset = 3
	sig := runScenario(t, cfg, 55)
	placed := 0
	for _, s := range sig {
		if s >= 0 {
			placed++
		}
	}
	if placed != len(sig) {
		t.Fatalf("only %d/%d VMs placed with invitation subsets", placed, len(sig))
	}
}

func TestConsolidationEndToEnd(t *testing.T) {
	// 60 small VMs on a 12-server fleet: after migrations settle, far fewer
	// than 12 servers should be active, and none outside [Tl, Ta] except
	// stragglers. This is the paper's core claim in miniature.
	d := dc.New(dc.StandardFleet(12))
	cfg := DefaultConfig()
	p := mustPolicy(t, cfg, 123)
	env := newEnv(d, 0)
	// Spread arrivals thinly so many servers wake (non-consolidated start).
	for i := 0; i < 60; i++ {
		env.Now = time.Duration(i) * time.Minute
		s := d.Servers[i%12]
		if s.State() == dc.Hibernated {
			if err := d.Activate(s, env.Now); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Place(constVM(i, 600), s); err != nil {
			t.Fatal(err)
		}
	}
	startActive := d.ActiveCount()
	env.Now = 2 * time.Hour
	runControls(p, &env, 200, func() bool { return false })
	endActive := d.ActiveCount()
	if endActive >= startActive {
		t.Fatalf("no consolidation: active %d -> %d", startActive, endActive)
	}
	// Total demand 36,000 MHz; ideal is 4 servers at ~0.75 mean utilization
	// of the standard mix. Allow slack but require real packing.
	if endActive > 6 {
		t.Fatalf("weak consolidation: %d servers still active for 36 GHz of demand", endActive)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// No server may end up overloaded by consolidation.
	for _, s := range d.Servers {
		if s.State() == dc.Active && s.UtilizationAt(env.Now) > 1 {
			t.Fatalf("server %d overloaded at %v", s.ID, s.UtilizationAt(env.Now))
		}
	}
}

func TestPickMostLoadedTightensPacking(t *testing.T) {
	// Two acceptors at different utilizations: with PickMostLoaded the VM
	// must land on the higher one every time.
	run := func(pick bool) int {
		d := dc.New(dc.UniformFleet(3, 6, 2000))
		cfg := DefaultConfig()
		cfg.PickMostLoaded = pick
		p := mustPolicy(t, cfg, 31)
		env := newEnv(d, 0)
		a, b := d.Servers[0], d.Servers[1]
		if err := d.Activate(a, 0); err != nil {
			t.Fatal(err)
		}
		if err := d.Activate(b, 0); err != nil {
			t.Fatal(err)
		}
		if err := d.Place(constVM(100, 7200), a); err != nil { // u = 0.60
			t.Fatal(err)
		}
		if err := d.Place(constVM(101, 8400), b); err != nil { // u = 0.70
			t.Fatal(err)
		}
		env.Now = 2 * time.Hour
		onB := 0
		for i := 0; i < 40; i++ {
			p.OnArrival(env, constVM(i, 10)) // tiny VMs: both servers stay acceptors
			if host, _ := d.HostOf(i); host == b {
				onB++
			}
		}
		return onB
	}
	// b occasionally declines its own Bernoulli trial (fa < 1), so demand a
	// strong majority rather than unanimity.
	if got := run(true); got < 35 {
		t.Fatalf("PickMostLoaded placed only %d/40 on the most utilized server", got)
	}
	if got := run(false); got > 33 || got < 7 {
		t.Fatalf("uniform selection placed %d/40 on one server (should spread)", got)
	}
}

func TestInviteGroupsPlacesEverything(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InviteGroups = 4
	sig := runScenario(t, cfg, 66)
	for i, s := range sig {
		if s < 0 {
			t.Fatalf("VM %d unplaced under invitation groups", i)
		}
	}
}

func TestInviteGroupsRotate(t *testing.T) {
	// With grouping, a single arrival round must only consult one group:
	// build two acceptors in different groups and check that consecutive
	// arrivals alternate between them (round-robin group rotation), rather
	// than competing every round.
	d := dc.New(dc.UniformFleet(4, 6, 2000))
	cfg := DefaultConfig()
	cfg.InviteGroups = 2
	p := mustPolicy(t, cfg, 67)
	env := newEnv(d, 0)
	a, b := d.Servers[0], d.Servers[1] // groups 0 and 1
	if err := d.Activate(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(b, 0); err != nil {
		t.Fatal(err)
	}
	// Load both to u=0.675 (the fa peak): acceptance ~certain.
	if err := d.Place(constVM(100, 8100), a); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(constVM(101, 8100), b); err != nil {
		t.Fatal(err)
	}
	env.Now = 2 * time.Hour
	var hosts []int
	for i := 0; i < 6; i++ {
		p.OnArrival(env, constVM(i, 10))
		h, _ := d.HostOf(i)
		hosts = append(hosts, h.ID)
	}
	// Group rotation: arrivals alternate 0,1,0,1,... (with near-1 acceptance).
	alternations := 0
	for i := 1; i < len(hosts); i++ {
		if hosts[i] != hosts[i-1] {
			alternations++
		}
	}
	if alternations < 4 {
		t.Fatalf("hosts = %v: expected round-robin group alternation", hosts)
	}
}

func TestInviteGroupsValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InviteGroups = -1
	if _, err := New(cfg, 1); err == nil {
		t.Fatal("negative InviteGroups accepted")
	}
}

func TestHighMigrationSelectsSufficientVM(t *testing.T) {
	// Overloaded server with one VM big enough to relieve on its own and
	// several small ones: the §II rule migrates a VM whose demand covers
	// the excess, so a single migration must restore u <= Th.
	d := dc.New(dc.UniformFleet(3, 6, 2000))
	cfg := DefaultConfig()
	p := mustPolicy(t, cfg, 40)
	env := newEnv(d, 0)
	a, b := d.Servers[0], d.Servers[1]
	if err := d.Activate(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(b, 0); err != nil {
		t.Fatal(err)
	}
	// a: 11 x 1000 + 1 x 1200 = 12200 MHz => u ~1.017, excess over Th: 800.
	for i := 0; i < 11; i++ {
		if err := d.Place(constVM(i, 1000), a); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Place(constVM(50, 1200), a); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(constVM(60, 3600), b); err != nil { // b: u = 0.30
		t.Fatal(err)
	}
	env.Now = time.Hour
	relieved := runControls(p, &env, 30, func() bool {
		return a.UtilizationAt(env.Now) <= cfg.Th
	})
	if !relieved {
		t.Fatal("overload never relieved")
	}
	if got := env.Rec.MigrationCount(cluster.MigrationHigh); got != 1 {
		t.Fatalf("high migrations = %d, want exactly 1 (a sufficient VM exists)", got)
	}
}

func TestHighMigrationTaPrimeClamped(t *testing.T) {
	// With u far above 1, Ta' = 0.9*u would exceed 1; it must clamp to Ta so
	// the tightened assignment function stays valid and the destination is
	// still bounded by the global threshold.
	d := dc.New(dc.UniformFleet(2, 6, 2000))
	cfg := DefaultConfig()
	p := mustPolicy(t, cfg, 41)
	env := newEnv(d, 0)
	a, b := d.Servers[0], d.Servers[1]
	if err := d.Activate(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(b, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := d.Place(constVM(i, 4000), a); err != nil { // a: u = 1.33
			t.Fatal(err)
		}
	}
	if err := d.Place(constVM(10, 3600), b); err != nil { // b: u = 0.30 accepts
		t.Fatal(err)
	}
	env.Now = time.Hour
	relieved := runControls(p, &env, 30, func() bool { return a.NumVMs() < 4 })
	if !relieved {
		t.Fatal("clamped Ta' prevented any migration")
	}
	// Destination must not have been pushed past the global Ta.
	if u := b.UtilizationAt(env.Now); u > cfg.Ta+1e-9 {
		t.Fatalf("destination at %v, above Ta", u)
	}
}

// Property: after any sequence of arrivals, no server sits above Ta unless
// the run recorded a saturation event (the explicit degraded-service path).
func TestQuickArrivalsRespectTa(t *testing.T) {
	f := func(seed uint64) bool {
		d := dc.New(dc.StandardFleet(6))
		cfg := DefaultConfig()
		p, err := New(cfg, seed)
		if err != nil {
			return false
		}
		env := newEnv(d, 0)
		src := rng.New(seed)
		for i := 0; i < 60; i++ {
			env.Now = time.Duration(i) * 2 * time.Minute
			mhz := 100 + src.Float64()*2300
			p.OnArrival(env, constVM(i, mhz))
		}
		if env.Rec.Saturations > 0 {
			return true // degraded path taken, overshoot is expected
		}
		for _, s := range d.Servers {
			if s.State() == dc.Active && s.UtilizationAt(env.Now) > cfg.Ta+1e-9 {
				return false
			}
		}
		return d.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectDestinationZeroAlloc pins the invitation round's scratch: once
// warmed, a round on the default configuration reuses the Policy's slices
// and allocates nothing.
func TestSelectDestinationZeroAlloc(t *testing.T) {
	d := dc.New(dc.StandardFleet(30))
	for i, s := range d.Servers {
		if err := d.Activate(s, 0); err != nil {
			t.Fatal(err)
		}
		s.SetActivatedAt(-1000 * time.Hour)
		for j := 0; j < 1+i%5; j++ {
			if err := d.Place(constVM(100*i+j, 400+float64((i*37+j*11)%900)), s); err != nil {
				t.Fatal(err)
			}
		}
	}
	p := mustPolicy(t, DefaultConfig(), 1)
	env := newEnv(d, time.Hour)
	placed := 0
	for i := 0; i < 20; i++ {
		if p.selectDestination(env, p.core.Ta, -1, false, 200, 0) != nil {
			placed++
		}
	}
	if placed == 0 {
		t.Fatal("no invitation round found a destination")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		p.selectDestination(env, p.core.Ta, -1, false, 200, 0)
	}); allocs != 0 {
		t.Fatalf("selectDestination allocates %v per call, want 0", allocs)
	}
}
