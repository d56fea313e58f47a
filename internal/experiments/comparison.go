package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/trace"
)

// ComparisonOptions parameterizes the head-to-head run backing the
// abstract's claim that ecoCloud's efficiency is "comparable to that of one
// of the best centralized algorithms devised so far" while migrating far
// less.
type ComparisonOptions struct {
	RunConfig

	Eco      ecocloud.Config
	Baseline baseline.Config
	Gen      trace.GenConfig
	Power    dc.PowerModel
	Control  time.Duration
	Sample   time.Duration
}

// DefaultComparisonOptions compares at the paper's scale on the same
// workload the Figs. 6–11 run uses.
func DefaultComparisonOptions() ComparisonOptions {
	gen := trace.DefaultGenConfig()
	return ComparisonOptions{
		RunConfig: RunConfig{Servers: 400, NumVMs: gen.NumVMs, Horizon: gen.Horizon, Seed: 1},
		Eco:       ecocloud.DefaultConfig(),
		Baseline:  baseline.DefaultConfig(),
		Gen:       gen,
		Power:     dc.DefaultPowerModel(),
		Control:   5 * time.Minute,
		Sample:    30 * time.Minute,
	}
}

// ComparisonResult holds the per-policy results keyed by policy name, in a
// stable order.
type ComparisonResult struct {
	Order   []string
	Results map[string]*cluster.Result
	Servers int
}

// Comparison runs ecoCloud, BFD, FFD and the all-on floor over the identical
// workload and fleet.
func Comparison(opts ComparisonOptions) (*ComparisonResult, error) {
	gen := opts.Gen
	gen.NumVMs = opts.NumVMs
	gen.Horizon = opts.Horizon
	ws, err := trace.Generate(gen, opts.Seed)
	if err != nil {
		return nil, err
	}

	bcfg := opts.Baseline
	bcfg.Power = opts.Power
	// Each policy gets its own data center and runs independently; the
	// (read-only) workload is shared, so the four runs execute in parallel.
	builders := []func() (cluster.Policy, error){
		func() (cluster.Policy, error) { return ecocloud.New(opts.Eco, opts.Seed+1) },
		func() (cluster.Policy, error) { return baseline.NewBFD(bcfg) },
		func() (cluster.Policy, error) { return baseline.NewFFD(bcfg) },
		func() (cluster.Policy, error) { return &baseline.AllOn{}, nil },
	}
	names := make([]string, len(builders))
	results := make([]*cluster.Result, len(builders))
	err = forEach(len(builders), func(i int) error {
		pol, err := builders[i]()
		if err != nil {
			return err
		}
		// The four policies run concurrently; sharing the caller's recorder
		// here would interleave their journal lines nondeterministically, so
		// the per-policy runs execute unobserved (the comparison table is
		// the product).
		ccfg := opts.ClusterConfig(dc.StandardFleet(opts.Servers), ws, opts.Control, opts.Sample, opts.Power)
		res, err := cluster.Run(ccfg, pol)
		if err != nil {
			return fmt.Errorf("experiments: comparison policy %s: %v", pol.Name(), err)
		}
		names[i] = pol.Name()
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &ComparisonResult{Results: map[string]*cluster.Result{}, Servers: opts.Servers}
	for i, name := range names {
		out.Order = append(out.Order, name)
		out.Results[name] = results[i]
	}
	return out, nil
}

// Figure materializes the comparison table: one row per policy.
func (c *ComparisonResult) Figure() *Figure {
	f := &Figure{
		ID:    "comparison",
		Title: "ecoCloud vs centralized baselines on the identical workload",
		Columns: []string{
			"policy_idx", "energy_kwh", "mean_active_servers",
			"migrations_low", "migrations_high", "peak_migrations_per_hour",
			"max_concurrent_migrations", "mean_concurrent_migrations",
			"overload_pct", "activations", "hibernations", "saturations",
		},
	}
	for i, name := range c.Order {
		r := c.Results[name]
		f.Add(float64(i), r.EnergyKWh, r.MeanActiveServers,
			float64(r.TotalLowMigrations), float64(r.TotalHighMigrations),
			r.MaxMigrationsPerHour,
			float64(r.MaxConcurrentMigrations), r.MeanConcurrentMigrations,
			100*r.VMOverloadTimeFrac,
			float64(r.TotalActivations), float64(r.TotalHibernations),
			float64(r.Saturations))
		f.Notef("policy_idx %d = %s: %.1f kWh, %.1f mean active, %d+%d migrations, %.5f%% overload",
			i, name, r.EnergyKWh, r.MeanActiveServers,
			r.TotalLowMigrations, r.TotalHighMigrations, 100*r.VMOverloadTimeFrac)
	}
	if eco, ok := c.Results["ecocloud"]; ok {
		if bfd, ok := c.Results["bfd"]; ok && bfd.EnergyKWh > 0 {
			f.Notef("ecoCloud energy / BFD energy = %.3f (paper: comparable, i.e. ~1)",
				eco.EnergyKWh/bfd.EnergyKWh)
			ecoMig := eco.TotalLowMigrations + eco.TotalHighMigrations
			bfdMig := bfd.TotalLowMigrations + bfd.TotalHighMigrations
			f.Notef("migrations: ecoCloud %d vs BFD %d (paper: ecoCloud migrates far less)", ecoMig, bfdMig)
			f.Notef("largest simultaneous migration batch: ecoCloud %d vs BFD %d (paper §V: gradual vs simultaneous relocation)",
				eco.MaxConcurrentMigrations, bfd.MaxConcurrentMigrations)
		}
		if allon, ok := c.Results["allon"]; ok && allon.EnergyKWh > 0 {
			f.Notef("ecoCloud saves %.1f%% energy vs no consolidation",
				100*(1-eco.EnergyKWh/allon.EnergyKWh))
		}
	}
	return f
}
