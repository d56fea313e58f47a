package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ecocloud"
	"repro/internal/obs"
)

// The registry golden pins every registered experiment below paper scale:
// the All() order, and a SHA-256 of each figure's CSV at Scale 0.05 with
// TestRegistryRoundTrip's overrides and a non-default Eco. Quick-run
// ladders, churn-rate scaling, Apply's fleet scaling and the option field
// each experiment copies Eco into only show there; the paper-scale figure
// gate, which runs the default Eco, never reaches them. Regenerate (only
// for an intentional behaviour change) with:
//
//	go test ./internal/experiments -run TestRegistryRoundTrip -update-registry-golden
var updateRegistryGolden = flag.Bool("update-registry-golden", false, "rewrite the registry golden")

var registryGoldenPath = filepath.Join("testdata", "registry_scale005.txt")

// readRegistryGolden parses the golden: an "order" line naming the
// experiments, then one "<experiment> <figure> <sha256>" line per figure.
func readRegistryGolden(t *testing.T) (order []string, figures map[string][]string) {
	t.Helper()
	data, err := os.ReadFile(registryGoldenPath)
	if err != nil {
		t.Fatalf("registry golden missing (run with -update-registry-golden): %v", err)
	}
	figures = map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, rest, _ := strings.Cut(line, " ")
		if name == "order" {
			order = strings.Fields(rest)
		} else {
			figures[name] = append(figures[name], rest)
		}
	}
	return order, figures
}

func writeRegistryGolden(order []string, figures [][]string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "order %s\n", strings.Join(order, " "))
	for i, name := range order {
		for _, line := range figures[i] {
			fmt.Fprintf(&b, "%s %s\n", name, line)
		}
	}
	return os.WriteFile(registryGoldenPath, []byte(b.String()), 0o644)
}

// figureHashes returns one "<figure ID> <sha256 of its CSV>" line per figure.
func figureHashes(t *testing.T, figs []*Figure) []string {
	t.Helper()
	lines := make([]string, len(figs))
	for i, f := range figs {
		var buf bytes.Buffer
		if err := f.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		lines[i] = fmt.Sprintf("%s %x", f.ID, sha256.Sum256(buf.Bytes()))
	}
	return lines
}

// TestRegistryRoundTrip runs every registered experiment at a small scale
// with a live recorder and checks the uniform contract: figures come back
// non-empty and match the registry golden, and the run's manifest marshals
// to valid JSON with the metrics snapshot folded in.
func TestRegistryRoundTrip(t *testing.T) {
	all := All()
	if len(all) < 10 {
		t.Fatalf("registry has %d experiments, expected the full paper set", len(all))
	}
	names := make([]string, len(all))
	for i, e := range all {
		names[i] = e.Name
	}
	// Each subtest fills its own slot; the parallel subtests have all
	// finished when the cleanup writes the golden.
	hashes := make([][]string, len(all))
	var golden map[string][]string
	if *updateRegistryGolden {
		t.Cleanup(func() {
			if err := writeRegistryGolden(names, hashes); err != nil {
				t.Errorf("writing registry golden: %v", err)
			}
		})
	} else {
		var order []string
		order, golden = readRegistryGolden(t)
		if !reflect.DeepEqual(names, order) {
			t.Fatalf("registry order %v, golden %v", names, order)
		}
	}
	// Overrides that keep the heavyweight experiments fast; the Scale knob
	// shrinks the rest.
	small := map[string]RunConfig{
		"daily":       {Servers: 15, NumVMs: 225, Horizon: 6 * time.Hour},
		"assignonly":  {Servers: 15, NumVMs: 225, Horizon: 6 * time.Hour},
		"sensitivity": {Servers: 10, NumVMs: 150, Horizon: 3 * time.Hour},
		"comparison":  {Servers: 10, NumVMs: 150, Horizon: 4 * time.Hour},
		"protocolday": {Servers: 15, NumVMs: 225, Horizon: 4 * time.Hour},
		"fluiderror":  {Servers: 20, Horizon: 2 * time.Hour},
		"traces":      {NumVMs: 200, Horizon: 6 * time.Hour},
		"multiresource": {
			Servers: 12, NumVMs: 180, Horizon: 4 * time.Hour,
		},
		"replication": {Servers: 15, NumVMs: 225, Horizon: 6 * time.Hour},
	}
	// A non-default Ta moves the figures of every experiment that takes Eco.
	eco := ecocloud.DefaultConfig()
	eco.Ta = 0.85
	for i, e := range all {
		i, e := i, e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			rec := obs.NewRecorder(nil, nil)
			cfg := small[e.Name]
			cfg.Obs = rec
			manifest := obs.NewManifest(e.Name, cfg, 1)
			res, err := e.Run(RunRequest{Config: cfg, Eco: &eco, Scale: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			if res.Name != e.Name {
				t.Fatalf("result name %q, want %q", res.Name, e.Name)
			}
			if len(res.Figures) == 0 {
				t.Fatal("no figures returned")
			}
			for _, f := range res.Figures {
				if f.ID == "" || len(f.Rows) == 0 {
					t.Fatalf("figure %q is empty", f.ID)
				}
			}
			hashes[i] = figureHashes(t, res.Figures)
			if !*updateRegistryGolden && !reflect.DeepEqual(hashes[i], golden[e.Name]) {
				t.Errorf("figures diverge from the registry golden:\n got %q\nwant %q", hashes[i], golden[e.Name])
			}

			manifest.Finish(rec)
			dir := t.TempDir()
			path, err := manifest.WriteFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			if filepath.Base(path) != "run.json" {
				t.Fatalf("manifest path = %q", path)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var got obs.Manifest
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatalf("manifest is not valid JSON: %v", err)
			}
			if got.Experiment != e.Name || got.GoVersion == "" || got.WallSeconds < 0 {
				t.Fatalf("manifest round-trip lost fields: %+v", got)
			}
		})
	}
}

// TestRegistryUnknownName checks Run's error path names the candidates.
func TestRegistryUnknownName(t *testing.T) {
	if _, err := Run("nope", RunRequest{}); err == nil {
		t.Fatal("expected an error for an unknown experiment")
	}
}

// TestRunRequestApply checks the merge order: scale first, then explicit
// non-zero overrides win.
func TestRunRequestApply(t *testing.T) {
	def := RunConfig{Servers: 400, NumVMs: 6000, Horizon: 48 * time.Hour, Seed: 1}
	got := RunRequest{Scale: 0.1, Config: RunConfig{Servers: 77}}.Apply(def)
	if got.Servers != 77 {
		t.Fatalf("explicit override lost: servers = %d", got.Servers)
	}
	if got.NumVMs != 600 {
		t.Fatalf("scale not applied: vms = %d", got.NumVMs)
	}
	if got.Horizon != 48*time.Hour || got.Seed != 1 {
		t.Fatalf("defaults clobbered: %+v", got)
	}
}
