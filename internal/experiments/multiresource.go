package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/trace"
)

// MultiResourceOptions parameterizes the §V end-to-end study: the same
// RAM-aware workload and RAM-equipped fleet, placed by (a) the paper's
// CPU-only algorithm, (b) the all-trials strategy, and (c) the
// critical-resource-plus-constraints strategy. The CPU-only policy is blind
// to memory, so on a memory-tight mix it overcommits RAM; the extension's
// job is to eliminate that while keeping consolidation quality.
type MultiResourceOptions struct {
	RunConfig

	// RAMPerCoreMB equips each server with this much memory per core. The
	// default (1536 MB/core) is deliberately tight against the workload so
	// the CPU-only policy has something to get wrong.
	RAMPerCoreMB float64

	Eco     ecocloud.Config
	Gen     trace.GenConfig
	Power   dc.PowerModel
	Control time.Duration
	Sample  time.Duration
}

// DefaultMultiResourceOptions returns a 100-server / 1,500-VM day with an
// anti-correlated CPU/RAM mix.
func DefaultMultiResourceOptions() MultiResourceOptions {
	gen := trace.DefaultGenConfig()
	gen.NumVMs = 1500
	gen.Horizon = 24 * time.Hour
	gen.RAMMedianMB = 200
	gen.RAMSigma = 0.7
	gen.RAMAntiCorr = true
	return MultiResourceOptions{
		RunConfig:    RunConfig{Servers: 100, NumVMs: gen.NumVMs, Horizon: gen.Horizon, Seed: 1},
		RAMPerCoreMB: 1536,
		Eco:          ecocloud.DefaultConfig(),
		Gen:          gen,
		Power:        dc.DefaultPowerModel(),
		Control:      5 * time.Minute,
		Sample:       30 * time.Minute,
	}
}

// MultiResourceResult holds the three runs in order: cpu-only, all-trials,
// critical.
type MultiResourceResult struct {
	Order   []string
	Results map[string]*cluster.Result
}

// MultiResource runs the three variants on the identical workload.
func MultiResource(opts MultiResourceOptions) (*MultiResourceResult, error) {
	gen := opts.Gen
	gen.NumVMs = opts.NumVMs
	gen.Horizon = opts.Horizon
	ws, err := trace.Generate(gen, opts.Seed)
	if err != nil {
		return nil, err
	}
	specs := dc.WithRAM(dc.StandardFleet(opts.Servers), opts.RAMPerCoreMB)

	variants := []struct {
		name string
		ram  *ecocloud.RAMConfig
	}{
		{"cpu-only", nil},
		{"all-trials", ecocloud.DefaultRAMConfig()},
		{"critical", &ecocloud.RAMConfig{Ta: 0.90, P: 3, Strategy: ecocloud.CriticalPlusConstraints}},
	}
	out := &MultiResourceResult{Results: map[string]*cluster.Result{}}
	names := make([]string, len(variants))
	results := make([]*cluster.Result, len(variants))
	err = forEach(len(variants), func(i int) error {
		cfg := opts.Eco
		cfg.RAM = variants[i].ram
		pol, err := ecocloud.New(cfg, opts.Seed+1)
		if err != nil {
			return err
		}
		// Variants run concurrently; a shared recorder would interleave
		// their journals nondeterministically, so variants run unobserved.
		ccfg := opts.ClusterConfig(specs, ws, opts.Control, opts.Sample, opts.Power)
		res, err := cluster.Run(ccfg, pol)
		if err != nil {
			return fmt.Errorf("experiments: multi-resource %s: %v", variants[i].name, err)
		}
		names[i] = variants[i].name
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		out.Order = append(out.Order, name)
		out.Results[name] = results[i]
	}
	return out, nil
}

// Figure materializes the comparison: one row per variant.
func (m *MultiResourceResult) Figure() *Figure {
	f := &Figure{
		ID:    "multiresource",
		Title: "§V extension: CPU-only vs multi-resource strategies on a RAM-tight mix",
		Columns: []string{
			"variant_idx", "energy_kwh", "mean_active_servers",
			"cpu_overload_pct", "ram_overcommit_pct", "migrations", "saturations",
		},
	}
	for i, name := range m.Order {
		r := m.Results[name]
		f.Add(float64(i), r.EnergyKWh, r.MeanActiveServers,
			100*r.VMOverloadTimeFrac, 100*r.RAMOverloadTimeFrac,
			float64(r.TotalLowMigrations+r.TotalHighMigrations), float64(r.Saturations))
		f.Notef("variant %d = %s: %.1f kWh, %.1f active, %.4f%% CPU overload, %.4f%% RAM overcommit",
			i, name, r.EnergyKWh, r.MeanActiveServers,
			100*r.VMOverloadTimeFrac, 100*r.RAMOverloadTimeFrac)
	}
	return f
}
