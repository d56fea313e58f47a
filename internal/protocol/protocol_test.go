package protocol

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/dc"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

func constVM(id int, mhz float64) *trace.VM {
	return &trace.VM{ID: id, Start: 0, End: 1000 * time.Hour, Epoch: 1000 * time.Hour, Demand: []float64{mhz}}
}

// fixedConfig removes jitter so latency assertions are exact.
func fixedConfig() Config {
	cfg := DefaultConfig()
	cfg.Latency = netsim.LatencyModel{Base: time.Millisecond}
	return cfg
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Ta = 0 },
		func(c *Config) { c.P = -1 },
		func(c *Config) { c.Grace = -time.Second },
		func(c *Config) { c.InviteGroups = -1 },
		func(c *Config) { c.InviteSubset = -1 },
	}
	for i, mutate := range bad {
		cfg := fixedConfig()
		mutate(&cfg)
		if _, err := New(cfg, dc.UniformFleet(2, 6, 2000), 1); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestEmptyFleetWakeAssign(t *testing.T) {
	c, err := New(fixedConfig(), dc.UniformFleet(3, 6, 2000), 1)
	if err != nil {
		t.Fatal(err)
	}
	c.PlaceVM(constVM(1, 500))
	c.Engine().Run(0)
	if c.Stats.Placements != 1 || c.Stats.Wakes != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
	if c.DC().ActiveCount() != 1 || c.DC().NumPlaced() != 1 {
		t.Fatal("VM not placed on a woken server")
	}
	// One wake+assign message only.
	if c.MessagesSent() != 1 {
		t.Fatalf("messages = %d, want 1", c.MessagesSent())
	}
	// Latency: one message hop.
	if c.Stats.MeanLatency() != time.Millisecond {
		t.Fatalf("latency = %v, want 1ms", c.Stats.MeanLatency())
	}
}

// activateLoaded wakes n servers and loads each to utilization u so they are
// willing acceptors (grace has long expired).
func activateLoaded(t *testing.T, c *Cluster, n int, u float64) {
	t.Helper()
	id := 10_000
	for i := 0; i < n; i++ {
		s := c.DC().Servers[i]
		if err := c.DC().Activate(s, 0); err != nil {
			t.Fatal(err)
		}
		s.SetActivatedAt(-1000 * time.Hour)
		if u > 0 {
			if err := c.DC().Place(constVM(id, u*s.CapacityMHz()), s); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
}

func TestReplyAllRound(t *testing.T) {
	c, err := New(fixedConfig(), dc.UniformFleet(5, 6, 2000), 2)
	if err != nil {
		t.Fatal(err)
	}
	activateLoaded(t, c, 5, 0.675) // fa peak: everyone nearly always accepts
	c.PlaceVM(constVM(1, 100))
	c.Engine().Run(0)
	if c.Stats.Placements != 1 {
		t.Fatalf("placements = %d", c.Stats.Placements)
	}
	// 1 broadcast + 5 replies + 1 assign = 7 wire sends.
	if got := c.MessagesSent(); got != 7 {
		t.Fatalf("messages = %d, want 7", got)
	}
	// invite (1ms) + reply (1ms) + assign (1ms): 3 hops.
	if c.Stats.MeanLatency() != 3*time.Millisecond {
		t.Fatalf("latency = %v, want 3ms", c.Stats.MeanLatency())
	}
	if c.Stats.Wakes != 0 {
		t.Fatalf("wakes = %d", c.Stats.Wakes)
	}
}

func TestSilentRejectSavesMessages(t *testing.T) {
	cfg := fixedConfig()
	cfg.SilentReject = true
	c, err := New(cfg, dc.UniformFleet(6, 6, 2000), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Five servers active at u=0 out of grace: fa(0)=0, everyone rejects
	// silently; the sixth stays hibernated for the wake path.
	activateLoaded(t, c, 5, 0)
	c.PlaceVM(constVM(1, 100))
	c.Engine().Run(0)
	if c.Stats.Placements != 1 {
		t.Fatalf("placements = %d", c.Stats.Placements)
	}
	// 1 broadcast + 0 replies + 1 wake-assign = 2 wire sends.
	if got := c.MessagesSent(); got != 2 {
		t.Fatalf("messages = %d, want 2", got)
	}
	if c.Stats.Wakes != 1 {
		t.Fatalf("wakes = %d, want 1 (nobody accepted)", c.Stats.Wakes)
	}
	// Latency includes the decision window: window + assign hop.
	want := decisionWindow + time.Millisecond
	if c.Stats.MeanLatency() != want {
		t.Fatalf("latency = %v, want %v", c.Stats.MeanLatency(), want)
	}
}

func TestGroupsInviteOneGroup(t *testing.T) {
	cfg := fixedConfig()
	cfg.InviteGroups = 4
	c, err := New(cfg, dc.UniformFleet(8, 6, 2000), 4)
	if err != nil {
		t.Fatal(err)
	}
	activateLoaded(t, c, 8, 0.675)
	c.PlaceVM(constVM(1, 100))
	c.Engine().Run(0)
	// Group has 2 servers: 1 broadcast + 2 replies + 1 assign = 4.
	if got := c.MessagesSent(); got != 4 {
		t.Fatalf("messages = %d, want 4", got)
	}
	if c.Stats.Placements != 1 {
		t.Fatalf("placements = %d", c.Stats.Placements)
	}
}

func TestSubsetInviteLimitsFanout(t *testing.T) {
	cfg := fixedConfig()
	cfg.InviteSubset = 3
	c, err := New(cfg, dc.UniformFleet(10, 6, 2000), 5)
	if err != nil {
		t.Fatal(err)
	}
	activateLoaded(t, c, 10, 0.675)
	c.PlaceVM(constVM(1, 100))
	c.Engine().Run(0)
	// 1 broadcast + 3 replies + 1 assign = 5.
	if got := c.MessagesSent(); got != 5 {
		t.Fatalf("messages = %d, want 5", got)
	}
}

func TestSaturationDegrades(t *testing.T) {
	c, err := New(fixedConfig(), dc.UniformFleet(2, 6, 2000), 6)
	if err != nil {
		t.Fatal(err)
	}
	activateLoaded(t, c, 2, 0.92) // above Ta: nobody accepts, nothing to wake
	c.PlaceVM(constVM(1, 100))
	c.Engine().Run(0)
	if c.Stats.Saturations != 1 {
		t.Fatalf("saturations = %d, want 1", c.Stats.Saturations)
	}
	if c.DC().NumPlaced() != 3 { // 2 loaders + the degraded placement
		t.Fatalf("placed = %d", c.DC().NumPlaced())
	}
}

func TestScheduledArrivals(t *testing.T) {
	// 100 arrivals one second apart on a cold fleet: the protocol must place
	// every VM, waking servers as needed (fa(0)=0, so early rounds wake and
	// the grace period then concentrates arrivals).
	c, err := New(fixedConfig(), dc.UniformFleet(20, 6, 2000), 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		vm := constVM(i, 300)
		c.Engine().Schedule(time.Duration(i)*time.Second, "arrival", func(*sim.Engine) {
			c.PlaceVM(vm)
		})
	}
	c.Engine().Run(0)
	if c.Stats.Placements != 100 {
		t.Fatalf("placements = %d, want 100", c.Stats.Placements)
	}
	if c.DC().NumPlaced() != 100 {
		t.Fatalf("placed VMs = %d, want 100", c.DC().NumPlaced())
	}
	if err := c.DC().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// 100 VMs x 300 MHz = 30,000 MHz: at Ta=0.9 of 12,000 MHz servers, at
	// least 3 are needed; the grace period should keep the count modest.
	active := c.DC().ActiveCount()
	if active < 3 || active > 12 {
		t.Fatalf("active servers = %d, want a modest count >= 3", active)
	}
	if c.Stats.Saturations != 0 {
		t.Fatalf("saturations = %d", c.Stats.Saturations)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int, int64, int) {
		c, err := New(fixedConfig(), dc.UniformFleet(10, 6, 2000), 11)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			vm := constVM(i, 400)
			c.Engine().Schedule(time.Duration(i)*time.Second, "arrival", func(*sim.Engine) {
				c.PlaceVM(vm)
			})
		}
		c.Engine().Run(0)
		return c.MessagesSent(), c.BytesSent(), c.DC().ActiveCount()
	}
	m1, b1, a1 := run()
	m2, b2, a2 := run()
	if m1 != m2 || b1 != b2 || a1 != a2 {
		t.Fatalf("identical runs diverged: (%d,%d,%d) vs (%d,%d,%d)", m1, b1, a1, m2, b2, a2)
	}
}

// TestDayJournal pins the protocol journal to the schema the cluster runner
// writes: a journaled day has one place line per placement, one migrate line
// per completed migration, and the key set of each kind. Journaling must not
// perturb the day.
func TestDayJournal(t *testing.T) {
	var buf bytes.Buffer
	c, _ := runDay(t, false, obs.NewRecorder(nil, obs.NewJournal(&buf)))
	if plain, _ := runDay(t, false, nil); plain.Stats != c.Stats {
		t.Fatalf("journaling changed the day:\nplain     %+v\njournaled %+v", plain.Stats, c.Stats)
	}
	keys := map[string]string{
		"place":     "kind server t_sim_ns vm",
		"remove":    "kind server t_sim_ns vm",
		"migrate":   "dest kind server t_sim_ns vm",
		"activate":  "kind server t_sim_ns",
		"hibernate": "kind server t_sim_ns",
	}
	counts := map[string]int{}
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var fields map[string]any
		if err := dec.Decode(&fields); err != nil {
			t.Fatal(err)
		}
		kind, _ := fields["kind"].(string)
		names := make([]string, 0, len(fields))
		for k := range fields {
			names = append(names, k)
		}
		sort.Strings(names)
		if got, want := strings.Join(names, " "), keys[kind]; got != want {
			t.Fatalf("%q line has keys %q, want %q", kind, got, want)
		}
		counts[kind]++
	}
	if counts["place"] != c.Stats.Placements {
		t.Fatalf("place lines = %d, Stats.Placements = %d", counts["place"], c.Stats.Placements)
	}
	migrations := c.Stats.MigrationsLow + c.Stats.MigrationsHigh
	if counts["migrate"] != migrations {
		t.Fatalf("migrate lines = %d, Stats migrations = %d", counts["migrate"], migrations)
	}
	for kind := range keys {
		if counts[kind] == 0 {
			t.Errorf("the day journaled no %s line; its key set went unchecked", kind)
		}
	}
}

func migConfig() Config {
	cfg := fixedConfig()
	cfg.EnableMigration = true
	cfg.ScanInterval = time.Minute
	cfg.TransferBytes = 1 << 20 // small VMs: keeps test latencies short
	return cfg
}

func TestMigrationConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Tl = 0.96 }, // above Th
		func(c *Config) { c.Th = 1.0 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Beta = -1 },
		func(c *Config) { c.ScanInterval = 0 },
		func(c *Config) { c.TransferBytes = 0 },
	}
	for i, mutate := range bad {
		cfg := migConfig()
		mutate(&cfg)
		if _, err := New(cfg, dc.UniformFleet(2, 6, 2000), 1); err == nil {
			t.Errorf("bad migration config %d accepted", i)
		}
	}
}

func TestScanRequiresEnable(t *testing.T) {
	c, err := New(fixedConfig(), dc.UniformFleet(2, 6, 2000), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scan without EnableMigration did not panic")
		}
	}()
	c.StartMigrationScan()
}

func TestLowMigrationOverMessages(t *testing.T) {
	c, err := New(migConfig(), dc.UniformFleet(3, 6, 2000), 8)
	if err != nil {
		t.Fatal(err)
	}
	// Source at u=0.10 (one VM), destination at u=0.60 (accepts).
	activateLoaded(t, c, 2, 0)
	a, b := c.DC().Servers[0], c.DC().Servers[1]
	if err := c.DC().Place(constVM(1, 1200), a); err != nil {
		t.Fatal(err)
	}
	if err := c.DC().Place(constVM(2, 7200), b); err != nil {
		t.Fatal(err)
	}
	c.StartMigrationScan()
	c.Engine().Run(2 * time.Hour)
	if host, _ := c.DC().HostOf(1); host != b {
		t.Fatalf("VM 1 still on server %d after 2h of scans", host.ID)
	}
	if c.Stats.MigrationsLow == 0 {
		t.Fatal("low migration not counted")
	}
	if c.Stats.MigrationsHigh != 0 {
		t.Fatal("spurious high migration")
	}
	// The drained source hibernates on a later scan.
	if a.State() != dc.Hibernated {
		t.Fatal("drained source not hibernated")
	}
	// Latency includes request, round, order and the 1 MiB transfer.
	if c.Stats.MigrationLatency <= 0 {
		t.Fatal("migration latency not accounted")
	}
	if err := c.DC().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHighMigrationWakesOverMessages(t *testing.T) {
	c, err := New(migConfig(), dc.UniformFleet(2, 6, 2000), 9)
	if err != nil {
		t.Fatal(err)
	}
	// One overloaded server; the only other machine is hibernated, so the
	// manager must wake it for the overload relief.
	activateLoaded(t, c, 1, 0)
	a := c.DC().Servers[0]
	if err := c.DC().Place(constVM(1, 6000), a); err != nil {
		t.Fatal(err)
	}
	if err := c.DC().Place(constVM(2, 6000), a); err != nil { // u = 1.0
		t.Fatal(err)
	}
	c.StartMigrationScan()
	c.Engine().Run(time.Hour)
	if c.Stats.MigrationsHigh == 0 {
		t.Fatal("high migration never completed")
	}
	if c.Stats.Wakes == 0 {
		t.Fatal("no wake despite empty acceptor set")
	}
	if a.UtilizationAt(c.Engine().Now()) > 0.95 {
		t.Fatalf("overload not relieved: u = %v", a.UtilizationAt(c.Engine().Now()))
	}
	if err := c.DC().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHighMigrationWakesLargestWhenNothingFits pins the wake of last resort
// the protocol shares with the cluster driver: a high migration that finds
// no acceptor, with every hibernated server too small for the VM under Ta',
// wakes the largest hibernated server rather than aborting.
func TestHighMigrationWakesLargestWhenNothingFits(t *testing.T) {
	specs := []dc.Spec{{Cores: 6, CoreMHz: 2000}, {Cores: 1, CoreMHz: 2000}, {Cores: 2, CoreMHz: 2000}, {Cores: 1, CoreMHz: 2000}}
	c, err := New(migConfig(), specs, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Server 0 at u = 1.0 is the only active server, so nobody is invited;
	// either 6,000 MHz VM fits no hibernated server under Ta' = 0.9 (the
	// largest holds 0.9 x 4,000 = 3,600 MHz).
	activateLoaded(t, c, 1, 0)
	a := c.DC().Servers[0]
	for id := 1; id <= 2; id++ {
		if err := c.DC().Place(constVM(id, 6000), a); err != nil {
			t.Fatal(err)
		}
	}
	c.StartMigrationScan()
	c.Engine().Run(time.Minute + time.Second) // the first scan and its migration
	if c.Stats.MigrationsHigh != 1 || c.Stats.MigrationsAborted != 0 || c.Stats.Wakes != 1 {
		t.Fatalf("stats = %+v, want one high migration onto one woken server", c.Stats)
	}
	largest := c.DC().Servers[2]
	if largest.State() != dc.Active || largest.NumVMs() != 1 {
		t.Fatalf("largest hibernated server: state %v, %d VMs; want it woken with the VM", largest.State(), largest.NumVMs())
	}
	for _, id := range []int{1, 3} {
		if s := c.DC().Servers[id]; s.State() != dc.Hibernated {
			t.Fatalf("server %d (1 core) woken, state %v", id, s.State())
		}
	}
	if err := c.DC().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLowMigrationAbortsWithoutDestination(t *testing.T) {
	c, err := New(migConfig(), dc.UniformFleet(3, 6, 2000), 10)
	if err != nil {
		t.Fatal(err)
	}
	// Only one active server, under-utilized; the rest hibernated. Low
	// migrations never wake, so every request aborts.
	activateLoaded(t, c, 1, 0)
	a := c.DC().Servers[0]
	if err := c.DC().Place(constVM(1, 1200), a); err != nil {
		t.Fatal(err)
	}
	c.StartMigrationScan()
	c.Engine().Run(time.Hour)
	if c.Stats.MigrationsLow+c.Stats.MigrationsHigh != 0 {
		t.Fatal("a migration completed with no possible destination")
	}
	if c.Stats.MigrationsAborted == 0 {
		t.Fatal("aborts not counted")
	}
	if c.DC().ActiveCount() != 1 {
		t.Fatal("low migration woke a server")
	}
	if host, _ := c.DC().HostOf(1); host != a {
		t.Fatal("VM moved")
	}
}

func TestMigrationTransferDominatesLatency(t *testing.T) {
	// With the default 4 GiB transfer at 1 us/KB, a migration takes ~4.2 s
	// while control messages take microseconds: the latency must be
	// transfer-dominated.
	cfg := migConfig()
	cfg.TransferBytes = 4 << 30
	cfg.Latency.PerKB = time.Microsecond // 4 GiB => ~4.2 s serialization
	c, err := New(cfg, dc.UniformFleet(3, 6, 2000), 11)
	if err != nil {
		t.Fatal(err)
	}
	activateLoaded(t, c, 2, 0)
	a, b := c.DC().Servers[0], c.DC().Servers[1]
	if err := c.DC().Place(constVM(1, 1200), a); err != nil {
		t.Fatal(err)
	}
	if err := c.DC().Place(constVM(2, 7200), b); err != nil {
		t.Fatal(err)
	}
	c.StartMigrationScan()
	c.Engine().Run(time.Hour)
	if c.Stats.MigrationsLow == 0 {
		t.Fatal("no migration completed")
	}
	perMig := c.Stats.MigrationLatency / time.Duration(c.Stats.MigrationsLow)
	if perMig < 3*time.Second {
		t.Fatalf("migration latency %v not transfer-dominated (~4s expected)", perMig)
	}
}
