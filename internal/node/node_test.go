package node

import (
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dc"
	"repro/internal/experiments"
	"repro/internal/node/tcptransport"
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
// returns the merged figure plus the nodes, their runs over.
func runCluster(t *testing.T, cfg *ClusterConfig, listeners []net.Listener) (*experiments.Figure, []*Node) {
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
			if i == 0 {
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
		t.Fatal("node 0 produced no merged figure")
	}
	return merged, nodes
}

// replicaState is a replica's state without the demand kernel's cache,
// whose hit and miss counts depend on which process read a server.
func replicaState(n *Node) dc.Snapshot {
	snap := n.cluster.DC().Snapshot()
	for i := range snap.Servers {
		snap.Servers[i].Kernel = dc.KernelSnapshot{}
	}
	return snap
}

// TestClusterMatchesNetsim holds ecod to its exact oracle: the merged figure
// equals experiments.ProtocolDay at the same Proto() on every column the two
// share, for arrivals spread in time, for a burst at t = 0 and on a lossy
// fabric. Every process's replica must end equal to node 0's, and the
// per-node final_active and energy_kwh must sum to the merged row.
func TestClusterMatchesNetsim(t *testing.T) {
	for _, tc := range []struct {
		name          string
		seed          uint64
		initial       int
		perHour       float64
		drop, dup     float64
		wantRecovered bool
	}{
		{name: "poisson-seed3", seed: 3, perHour: 150},
		{name: "poisson-seed7", seed: 7, perHour: 150},
		{name: "burst", seed: 7, initial: 60, perHour: 60},
		{name: "lossy", seed: 5, initial: 60, perHour: 60, drop: 0.05, dup: 0.02, wantRecovered: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, listeners := testConfig(t, tc.seed)
			cfg.InitialVMs, cfg.ArrivalPerHour = tc.initial, tc.perHour
			cfg.Drop, cfg.Dup = tc.drop, tc.dup
			merged, nodes := runCluster(t, cfg, listeners)

			pd, err := experiments.ProtocolDay(experiments.ProtocolDayOptions{
				RunConfig: experiments.RunConfig{
					Servers: cfg.Servers, NumVMs: cfg.InitialVMs, Horizon: cfg.Horizon, Seed: cfg.Seed,
				},
				Churn: cfg.Churn(),
				Proto: cfg.Proto(),
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, col := range pd.Columns {
				got, want := merged.Column(col)[0], pd.Column(col)[0]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: ecod %v, netsim %v", col, got, want)
				}
			}
			if merged.Column("placements")[0] == 0 || merged.Column("migrations_low")[0] == 0 {
				t.Fatalf("the day placed or migrated nothing: %v", merged.Rows)
			}
			if tc.wantRecovered && nodes[0].cluster.Stats.Replacements+nodes[0].cluster.Stats.MigrationsExpired == 0 {
				t.Fatalf("the lossy fabric lost nothing that needed recovery: %+v", nodes[0].cluster.Stats)
			}

			want := replicaState(nodes[0])
			var active, energy float64
			for i, n := range nodes {
				if got := replicaState(n); !reflect.DeepEqual(got, want) {
					t.Errorf("node %d's replica differs from node 0's", i)
				}
				f := n.nodeFigure()
				active += f.Column("final_active")[0]
				energy += f.Column("energy_kwh")[0]
			}
			if got := merged.Column("final_active")[0]; got != active {
				t.Errorf("merged final_active %v, nodes sum to %v", got, active)
			}
			if got := merged.Column("energy_kwh")[0]; math.Float64bits(got) != math.Float64bits(energy) || got <= 0 {
				t.Errorf("merged energy_kwh %v, nodes sum to %v", got, energy)
			}
		})
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
		merged, nodes := runCluster(t, cfg, listeners)
		var b strings.Builder
		fmt.Fprintf(&b, "%v\n", merged.Rows)
		for _, n := range nodes {
			// The per-node rows include the TCP frames and bytes each
			// process wrote: one frame per call or reply, so they are as
			// reproducible as the day.
			fmt.Fprintf(&b, "%v\n", n.nodeFigure().Rows)
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

// runAsync runs n on its own goroutine and delivers Run's error.
func runAsync(n *Node) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := n.Run("")
		done <- err
	}()
	return done
}

// within waits up to 5 s for a Run's error: a dead peer must fail the run,
// never hang it.
func within(t *testing.T, done <-chan error, who string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s's Run still blocked 5 s after its peer closed the link", who)
		return nil
	}
}

// TestRunFailsWhenServingNodeDies: a serving process that reads one call
// and closes its link fails node 0's run with an error naming the node, the
// work and the virtual time; node 2, still serving, then fails because
// node 0 left.
func TestRunFailsWhenServingNodeDies(t *testing.T) {
	cfg, listeners := testConfig(t, 3)
	n0, err := New(cfg, 0, Options{ConnectTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := New(cfg, 2, Options{Listener: listeners[2], ConnectTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		id := tcptransport.Identity{Node: 1, Hash: cfg.Hash(), Seed: cfg.Seed}
		if l, err := tcptransport.Accept(listeners[1], id, 5*time.Second); err == nil {
			l.Read()
			l.Close()
		}
	}()
	done2 := runAsync(n2)
	err = within(t, runAsync(n0), "node 0")
	work := regexp.MustCompile(`^protocol: (invite|assign|migrate|transfer|wake|scan|sync) call to process 1 at \S+: node 1: `)
	if err == nil || !work.MatchString(err.Error()) {
		t.Fatalf("node 0's error does not name the node, the work and the virtual time: %v", err)
	}
	if err := within(t, done2, "node 2"); err == nil || !strings.Contains(err.Error(), "node 0 left before the day ended") {
		t.Fatalf("node 2: %v", err)
	}
}

// TestServingNodeFailsWhenNodeZeroLeaves: node 0 handshakes and closes its
// link, and the serving process's run fails instead of waiting for calls.
func TestServingNodeFailsWhenNodeZeroLeaves(t *testing.T) {
	cfg, listeners := testConfig(t, 3)
	n1, err := New(cfg, 1, Options{Listener: listeners[1], ConnectTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	done := runAsync(n1)
	id := tcptransport.Identity{Node: 1, Hash: cfg.Hash(), Seed: cfg.Seed}
	l, err := tcptransport.Dial(cfg.Nodes[1].Addr, id, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := within(t, done, "node 1"); err == nil || !strings.Contains(err.Error(), "node 0 left before the day ended") {
		t.Fatalf("node 1: %v", err)
	}
}
