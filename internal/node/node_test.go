package node

import (
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/protocol"
)

// testConfig is a 3-node, 16-server cluster running a short protocol day,
// with listeners pre-bound so the shared config (and so the handshake hash)
// can name concrete ports before any node starts.
func testConfig(t *testing.T, seed uint64) (*ClusterConfig, []net.Listener) {
	t.Helper()
	spans := []Span{{0, 6}, {6, 11}, {11, 16}}
	cfg := DefaultClusterConfig()
	cfg.Seed = seed
	cfg.Servers = 16
	cfg.Horizon = 2 * time.Hour
	cfg.InitialVMs = 60
	cfg.ArrivalPerHour = 60
	cfg.MeanLifetime = 45 * time.Minute
	listeners := make([]net.Listener, len(spans))
	for i, span := range spans {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		t.Cleanup(func() { ln.Close() })
		cfg.Nodes = append(cfg.Nodes, NodeSpec{ID: i, Addr: ln.Addr().String(), Span: span})
	}
	return &cfg, listeners
}

// runCluster runs every node of cfg as an in-process goroutine (the CI
// smoke script runs the same topology as separate ecod processes) and
// returns the merged figure plus each node's summary.
func runCluster(t *testing.T, cfg *ClusterConfig, listeners []net.Listener) (*experiments.Figure, []summaryMsg) {
	t.Helper()
	nodes := make([]*Node, len(cfg.Nodes))
	for i := range nodes {
		n, err := New(cfg, i, Options{Listener: listeners[i], ConnectTimeout: 10 * time.Second})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = n
	}
	var (
		wg     sync.WaitGroup
		merged *experiments.Figure
		errs   = make([]error, len(nodes))
	)
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			fig, err := n.Run("")
			errs[i] = err
			if i == driverNode {
				merged = fig
			}
		}(i, n)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d run: %v", i, err)
		}
	}
	if merged == nil {
		t.Fatal("driver node produced no merged figure")
	}
	sums := make([]summaryMsg, len(nodes))
	for i, n := range nodes {
		sums[i] = n.agent.final
	}
	return merged, sums
}

func TestClusterMatchesNetsim(t *testing.T) {
	cfg, listeners := testConfig(t, 7)
	// No t=0 burst: the netsim engine decides every simultaneous arrival
	// before the first wake event lands, while ecod's barriers complete each
	// placement inside its arrival — with a simultaneous burst the two
	// systems legitimately pack the fleet differently (see DESIGN.md).
	// Distinct Poisson arrival times sequence both systems identically.
	cfg.InitialVMs = 0
	cfg.ArrivalPerHour = 150
	merged, sums := runCluster(t, cfg, listeners)

	// Shard totals must be globally consistent: placements minus removals
	// and net migrations equals what is still running, and the merged
	// final_active is the sum of the shards'.
	var finalActive int64
	for _, s := range sums {
		if s.MigrationsIn < 0 || s.Placements < 0 {
			t.Fatalf("negative counters in %+v", s)
		}
		finalActive += s.FinalActive
	}
	if got := merged.Column("final_active")[0]; got != float64(finalActive) {
		t.Fatalf("merged final_active %v, shard sum %d", got, finalActive)
	}

	// The same day on the netsim fabric, with zero wire latency: ecod
	// barriers complete instantaneously in virtual time, so the fair netsim
	// baseline is a zero-latency fabric (with the default 50 us fabric, the
	// t=0 arrival burst wakes a fresh server per VM before any wake lands —
	// a real dynamic ecod deliberately does not have; see DESIGN.md). The
	// remaining divergences (aggregated replies, accept-pick order, barrier
	// wake bookkeeping) justify a tolerance band, not byte equality:
	// placements are exact (every arrival lands exactly once in both), the
	// self-organizing outcomes must agree within 2x.
	churn := cfg.Churn()
	pd, err := experiments.ProtocolDay(experiments.ProtocolDayOptions{
		RunConfig: experiments.RunConfig{
			Servers: cfg.Servers, NumVMs: cfg.InitialVMs, Horizon: cfg.Horizon, Seed: cfg.Seed,
		},
		Churn: churn,
		Proto: func() protocol.Config {
			p := cfg.Proto()
			p.Latency = netsim.LatencyModel{}
			return p
		}(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merged.Column("placements")[0], pd.Column("placements")[0]; got != want {
		t.Errorf("placements: ecod %v, netsim %v", got, want)
	}
	within2x := func(name string) {
		t.Helper()
		got, want := merged.Column(name)[0], pd.Column(name)[0]
		if got < want/2-1 || got > want*2+1 {
			t.Errorf("%s: ecod %v vs netsim %v outside the documented 2x band", name, got, want)
		}
	}
	within2x("wakes")
	within2x("final_active")
	migs := func(f *experiments.Figure) float64 {
		return f.Column("migrations_low")[0] + f.Column("migrations_high")[0]
	}
	if got, want := migs(merged), migs(pd); got < want/2-1 || got > want*2+1 {
		t.Errorf("migrations: ecod %v vs netsim %v outside the documented 2x band", got, want)
	}

	var energy float64
	for _, s := range sums {
		energy += s.EnergyKWh
	}
	if energy <= 0 {
		t.Fatalf("cluster consumed no energy (%v kWh)", energy)
	}
}

// updateEcodGolden rewrites the seed-3 cluster golden. Regenerate only when
// an intentional behaviour change is being made:
//
//	go test ./internal/node -run TestSameSeedRunsIdentical -update-ecod-golden
var updateEcodGolden = flag.Bool("update-ecod-golden", false, "rewrite the seed-3 ecod cluster golden")

func TestSameSeedRunsIdentical(t *testing.T) {
	row := func() string {
		cfg, listeners := testConfig(t, 3)
		merged, sums := runCluster(t, cfg, listeners)
		var b strings.Builder
		fmt.Fprintf(&b, "%v\n", merged.Rows)
		for _, s := range sums {
			// Transport byte counts include per-run handshake frames only if
			// a link flapped; everything else is protocol traffic. Compare
			// the full shard summary including messages and bytes: the
			// barrier discipline makes even those reproducible.
			fmt.Fprintf(&b, "%+v\n", s)
		}
		return b.String()
	}
	first, second := row(), row()
	if first != second {
		t.Fatalf("same-seed runs diverged:\n--- run 1\n%s--- run 2\n%s", first, second)
	}
	// Self-consistency alone would let a change move both runs together, so
	// the output is also pinned to stored bytes.
	path := filepath.Join("testdata", "same_seed3.txt")
	if *updateEcodGolden {
		if err := os.WriteFile(path, []byte(first), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing (run with -update-ecod-golden): %v", err)
	}
	if first != string(want) {
		t.Fatalf("seed-3 run diverges from the golden:\n--- got\n%s--- want\n%s", first, want)
	}
}

func TestImpairedTransfersRecover(t *testing.T) {
	cfg, listeners := testConfig(t, 5)
	cfg.Horizon = 90 * time.Minute
	cfg.InitialVMs = 40
	cfg.ArrivalPerHour = 40
	cfg.Drop = 0.5
	cfg.Dup = 0.25
	merged, sums := runCluster(t, cfg, listeners)
	// Invariants held (agents panic otherwise) and the books balance even
	// with half the transfers dropped: a dropped transfer leaves the VM at
	// its source, so shard placements - removals - net migration flow must
	// still equal the running population.
	var running int64
	for _, s := range sums {
		running += s.Placements + s.MigrationsIn - s.Removals - s.MigrationsOut
	}
	placed := merged.Column("placements")[0]
	if running < 0 || int64(placed) < running {
		t.Fatalf("impaired run books do not balance: running %d, placements %v", running, placed)
	}
}

func TestConfigParseValidateHash(t *testing.T) {
	text := `
# comment
seed = 42
servers = 12
horizon = 1h30m
initial_vms = 20
arrival_per_hour = 10
node = 0 127.0.0.1:7101 0:4
node = 1 127.0.0.1:7102 4:8
node = 2 127.0.0.1:7103 8:12
`
	cfg, err := ParseConfig(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 42 || cfg.Servers != 12 || cfg.Horizon != 90*time.Minute {
		t.Fatalf("parsed %+v", cfg)
	}
	if cfg.Owner(5) != 1 || cfg.Owner(11) != 2 {
		t.Fatalf("owner mapping wrong: %d %d", cfg.Owner(5), cfg.Owner(11))
	}
	// The hash is over the canonical rendering: shuffled node lines and
	// cosmetic formatting must not change it.
	shuffled := strings.NewReader(strings.Replace(text,
		"node = 0 127.0.0.1:7101 0:4\nnode = 1 127.0.0.1:7102 4:8\n",
		"node = 1 127.0.0.1:7102 4:8\nnode = 0 127.0.0.1:7101 0:4\n", 1))
	cfg2, err := ParseConfig(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Hash() != cfg2.Hash() {
		t.Fatal("canonical hash depends on node declaration order")
	}
	other := *cfg
	other.Seed = 43
	if cfg.Hash() == other.Hash() {
		t.Fatal("hash ignores the seed")
	}

	for _, bad := range []string{
		"bogus = 1\nservers = 4\nnode = 0 a 0:4\n",      // unknown key
		"servers = 4\nnode = 0 a 0:3\n",                 // span does not cover fleet
		"servers = 4\nnode = 0 a 0:2\nnode = 1 b 3:4\n", // gap
		"servers = 4\nnode = 1 a 0:4\n",                 // IDs not contiguous from 0
		"servers = 4\ndrop = 1.5\nnode = 0 a 0:4\n",     // invalid impairment
		"servers = 4\nhorizon = -1h\nnode = 0 a 0:4\n",
	} {
		if _, err := ParseConfig(strings.NewReader(bad)); err == nil {
			t.Errorf("config %q validated", bad)
		}
	}
}
