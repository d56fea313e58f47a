package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/obs"
	"repro/internal/trace"
)

// The SoA goldens pin the cluster runner's output BYTES — every sampled
// series, the aggregates, the per-server utilization matrix and the event
// journal — for seeds 42–44 at workers 0, 1 and 8. They were captured before
// the flat hot-state (structure-of-arrays) refactor of internal/dc, so any
// layout change that moves a single bit of behaviour fails this test against
// the pre-refactor truth, not against itself. Regenerate (only when an
// intentional behaviour change is being made) with:
//
//	go test ./internal/experiments -run TestSoAGoldenDifferential -update-soa-golden
var updateSoAGolden = flag.Bool("update-soa-golden", false, "rewrite the SoA differential goldens")

// soaGoldenSeeds and soaGoldenWorkers span the differential matrix. Workers
// 0 (pristine sequential), 1 (pool code path, inline) and 8 (real fan-out)
// must all reproduce the same bytes.
var (
	soaGoldenSeeds   = []uint64{42, 43, 44}
	soaGoldenWorkers = []int{0, 1, 8}
)

// journalTo attaches a recorder that journals a run's data-center events
// into events.
func journalTo(events *bytes.Buffer) cluster.Option {
	return cluster.WithObs(obs.NewRecorder(nil, obs.NewJournal(events)))
}

// soaGoldenConfig is a deliberately policy-rich cell: arrivals, departures,
// migrations in both directions, hibernations and wake-ups all occur at this
// scale, and RecordServerUtil plus the event journal (attached with
// journalTo) exercise every output path the refactor touches.
func soaGoldenConfig(t *testing.T, seed uint64, workers int) (cluster.RunConfig, cluster.Policy) {
	t.Helper()
	gen := trace.DefaultGenConfig()
	gen.NumVMs = 240
	gen.Horizon = 6 * time.Hour
	ws, err := trace.Generate(gen, seed)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	pol, err := ecocloud.New(ecocloud.DefaultConfig(), seed+1)
	if err != nil {
		t.Fatalf("policy: %v", err)
	}
	return cluster.RunConfig{
		Specs:            dc.StandardFleet(48),
		Workload:         ws,
		Horizon:          gen.Horizon,
		ControlInterval:  5 * time.Minute,
		SampleInterval:   30 * time.Minute,
		PowerModel:       dc.DefaultPowerModel(),
		Workers:          workers,
		RecordServerUtil: true,
	}, pol
}

// hex formats a float with every bit visible; the goldens must not depend on
// decimal rounding.
func hex(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// marshalSoAResult serializes everything the goldens pin. The event journal
// goes in verbatim; floats go in as hex.
func marshalSoAResult(res *cluster.Result, events []byte) []byte {
	var b bytes.Buffer
	writeSeries := func(name string, tt []time.Duration, vv []float64) {
		fmt.Fprintf(&b, "series %s:", name)
		for i := range vv {
			fmt.Fprintf(&b, " %d=%s", int64(tt[i]), hex(vv[i]))
		}
		b.WriteByte('\n')
	}
	writeSeries("active_servers", res.ActiveServers.T, res.ActiveServers.V)
	writeSeries("power_w", res.PowerW.T, res.PowerW.V)
	writeSeries("overall_load", res.OverallLoad.T, res.OverallLoad.V)
	writeSeries("overdemand_pct", res.OverDemandPct.T, res.OverDemandPct.V)
	writeSeries("low_migrations", res.LowMigrations.T, res.LowMigrations.V)
	writeSeries("high_migrations", res.HighMigrations.T, res.HighMigrations.V)
	writeSeries("activations", res.Activations.T, res.Activations.V)
	writeSeries("hibernations", res.Hibernations.T, res.Hibernations.V)
	for i, t := range res.SampleTimes {
		fmt.Fprintf(&b, "util %d:", int64(t))
		for _, u := range res.ServerUtil[i] {
			fmt.Fprintf(&b, " %s", hex(u))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "agg energy_kwh %s\n", hex(res.EnergyKWh))
	fmt.Fprintf(&b, "agg mean_active %s\n", hex(res.MeanActiveServers))
	fmt.Fprintf(&b, "agg overload_frac %s\n", hex(res.VMOverloadTimeFrac))
	fmt.Fprintf(&b, "agg granted_frac %s\n", hex(res.GrantedFracInOverload))
	fmt.Fprintf(&b, "agg max_mig_per_hour %s\n", hex(res.MaxMigrationsPerHour))
	fmt.Fprintf(&b, "agg mean_concurrent_mig %s\n", hex(res.MeanConcurrentMigrations))
	fmt.Fprintf(&b, "agg ints %d %d %d %d %d %d %d\n",
		res.TotalLowMigrations, res.TotalHighMigrations,
		res.TotalActivations, res.TotalHibernations,
		res.Saturations, res.FinalActiveServers, res.MaxConcurrentMigrations)
	b.WriteString("journal:\n")
	b.Write(events)
	return b.Bytes()
}

func soaGoldenPath(seed uint64) string {
	return filepath.Join("testdata", fmt.Sprintf("soa_golden_seed%d.txt", seed))
}

// TestSoAGoldenDifferential runs the matrix and compares every run's bytes
// against the committed pre-refactor goldens.
func TestSoAGoldenDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is 9 full runs")
	}
	for _, seed := range soaGoldenSeeds {
		want, err := os.ReadFile(soaGoldenPath(seed))
		if err != nil && !*updateSoAGolden {
			t.Fatalf("golden for seed %d missing (run with -update-soa-golden): %v", seed, err)
		}
		for _, workers := range soaGoldenWorkers {
			var events bytes.Buffer
			cfg, pol := soaGoldenConfig(t, seed, workers)
			res, err := cluster.Run(cfg, pol, journalTo(&events))
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			got := marshalSoAResult(res, events.Bytes())
			if *updateSoAGolden {
				if workers == soaGoldenWorkers[0] {
					if err := os.WriteFile(soaGoldenPath(seed), got, 0o644); err != nil {
						t.Fatalf("writing golden: %v", err)
					}
					want = got
					continue
				}
			}
			if !bytes.Equal(got, want) {
				t.Errorf("seed %d workers %d: output diverges from pre-refactor golden (%d vs %d bytes)",
					seed, workers, len(got), len(want))
			}
		}
	}
}
