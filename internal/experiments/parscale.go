package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/rng"
	"repro/internal/trace"
)

// The parscale experiment extends the scalability story past the protocol
// study's fleets (footnote 1 tops out near 4,000 servers) to 50k–100k
// servers, and is the proving ground for the deterministic parallel control
// round: every fleet size runs once sequentially (Workers=0) and once per
// configured worker count, and the experiment *verifies* — not assumes —
// that all runs are bit-identical before reporting the baseline's numbers.
//
// The workload is a steady band: VMs are pre-placed round-robin
// (SpreadRoundRobin) and redraw their demand every control epoch from a
// per-VM rng stream sized so each server's utilization stays strictly
// inside (Tl, Th). No arrivals, no migrations, no wake-ups — every control
// tick is pure per-server work (demand refill, overload observation,
// energy), which is exactly the cost the fork-join engine shards. Wall-clock
// speedup curves are measured by `ecobench -par-bench` (wall time is banned
// from internal packages by the determinism contract); this experiment owns
// correctness at scale.

// ParScaleOptions parameterizes the sweep. RunConfig's fields map as:
// Servers>0 pins a single fleet size; NumVMs>0 overrides the per-fleet VM
// total (default VMsPerServer per server); Workers>0 narrows the sweep to
// {0, Workers}.
type ParScaleOptions struct {
	RunConfig
	FleetSizes   []int
	WorkerCounts []int
	VMsPerServer int
	Control      time.Duration
	Sample       time.Duration
	Power        dc.PowerModel
	Eco          ecocloud.Config
}

// DefaultParScaleOptions covers 10k/50k/100k servers at 10 VMs each over a
// two-hour horizon, sweeping Workers over {0, 2, 8}.
func DefaultParScaleOptions() ParScaleOptions {
	return ParScaleOptions{
		RunConfig:    RunConfig{Horizon: 2 * time.Hour, Seed: 1},
		FleetSizes:   []int{10_000, 50_000, 100_000},
		WorkerCounts: []int{0, 2, 8},
		VMsPerServer: 10,
		Control:      5 * time.Minute,
		Sample:       30 * time.Minute,
		Power:        dc.DefaultPowerModel(),
		Eco:          ecocloud.DefaultConfig(),
	}
}

// ParScalePoint is one verified fleet size: the baseline (sequential)
// numbers plus the outcome of the cross-worker bit-identity check.
type ParScalePoint struct {
	Servers  int
	VMs      int
	Workers  []int // every worker count verified against the baseline
	Baseline *cluster.Result
}

// parScaleWorkload builds the steady-band trace for a fleet: VM j lands on
// server j%n under SpreadRoundRobin (all VMs start at 0 with consecutive
// IDs), so its per-epoch demand is drawn to hold server j%n's utilization
// in [0.60, 0.85] — strictly inside (Tl, Th) — for the whole horizon.
// Demands come from per-VM streams (master.SplitIndex), so the trace is a
// pure function of (specs, perServer, horizon, epoch, seed).
//
// VM lifetimes extend one epoch PAST the horizon. With End == horizon every
// VM's demand is zero at the final control tick (t == Horizon fires before
// the engine stops), all n servers dip under Tl at once, and each runs a
// doomed migrateLow invitation round over the other n-1 — an O(n²) no-op
// storm (nobody accepts at fa(0) = 0) that cost minutes per cell at 50k+
// servers while recording zero migrations. Outliving the horizon keeps the
// band steady through every tick, which is the experiment's stated intent.
func parScaleWorkload(specs []dc.Spec, perServer int, horizon, epoch time.Duration, seed uint64) (*trace.Set, error) {
	master := rng.New(seed)
	epochs := int(horizon/epoch) + 1
	return trace.Synthesize(len(specs)*perServer, epochs, func(j int, demand []float64) *trace.VM {
		src := master.SplitIndex("parscale-vm", j)
		capMHz := specs[j%len(specs)].CapacityMHz()
		for e := range demand {
			u := 0.60 + 0.25*src.Float64()
			demand[e] = u * capMHz / float64(perServer)
		}
		return &trace.VM{
			ID:     j,
			Start:  0,
			End:    horizon + epoch,
			Epoch:  epoch,
			Demand: demand,
		}
	})
}

// ParScaleCell builds one (servers, workers) cell of the sweep: the run
// configuration and policy for a steady-band run of the given fleet size.
// Exported so ecobench's -par-bench can time exactly the cells the
// experiment verifies.
func ParScaleCell(opts ParScaleOptions, servers, workers int) (cluster.RunConfig, cluster.Policy, error) {
	perServer := opts.VMsPerServer
	if opts.NumVMs > 0 {
		perServer = opts.NumVMs / servers
		if perServer < 1 {
			perServer = 1
		}
	}
	specs := dc.StandardFleet(servers)
	ws, err := parScaleWorkload(specs, perServer, opts.Horizon, opts.Control, opts.Seed)
	if err != nil {
		return cluster.RunConfig{}, nil, err
	}
	pol, err := ecocloud.New(opts.Eco, opts.Seed+1)
	if err != nil {
		return cluster.RunConfig{}, nil, err
	}
	ccfg := opts.ClusterConfig(specs, ws, opts.Control, opts.Sample, opts.Power)
	ccfg.Initial = cluster.SpreadRoundRobin
	ccfg.Workers = workers
	return ccfg, pol, nil
}

// ParScale runs the sweep: per fleet size, one sequential baseline plus one
// run per non-zero worker count, each verified bit-identical to the
// baseline. A parity violation is an engine bug and fails the experiment.
func ParScale(opts ParScaleOptions) ([]ParScalePoint, error) {
	if opts.Servers > 0 {
		opts.FleetSizes = []int{opts.Servers}
	}
	if opts.Workers > 0 {
		opts.WorkerCounts = []int{0, opts.Workers}
	}
	if len(opts.FleetSizes) == 0 || len(opts.WorkerCounts) == 0 {
		return nil, fmt.Errorf("experiments: parscale needs fleet sizes and worker counts")
	}
	points := make([]ParScalePoint, 0, len(opts.FleetSizes))
	for _, servers := range opts.FleetSizes {
		var baseline *cluster.Result
		var workers []int
		for _, w := range opts.WorkerCounts {
			cfg, pol, err := ParScaleCell(opts, servers, w)
			if err != nil {
				return nil, err
			}
			res, err := cluster.Run(cfg, pol, cluster.WithObs(opts.Obs))
			if err != nil {
				return nil, fmt.Errorf("experiments: parscale %d servers, %d workers: %v", servers, w, err)
			}
			if baseline == nil {
				// The first configured count anchors parity; the default
				// sweep puts 0 (the pristine sequential engine) first.
				baseline = res
			} else if err := cluster.SameResult(baseline, res); err != nil {
				return nil, fmt.Errorf("experiments: parscale %d servers: Workers=%d diverged from Workers=%d: %v",
					servers, w, opts.WorkerCounts[0], err)
			}
			workers = append(workers, w)
		}
		vms := servers * opts.VMsPerServer
		if opts.NumVMs > 0 {
			per := opts.NumVMs / servers
			if per < 1 {
				per = 1
			}
			vms = servers * per
		}
		points = append(points, ParScalePoint{
			Servers:  servers,
			VMs:      vms,
			Workers:  workers,
			Baseline: baseline,
		})
	}
	return points, nil
}

// ParScaleFigure reports the verified baseline per fleet size. Everything in
// the figure (rows and notes) comes from the sequential baseline, so the CSV
// is byte-identical no matter which worker counts were swept — that
// invariance is itself checked by CI, which diffs the figure across
// -workers values.
func ParScaleFigure(points []ParScalePoint) *Figure {
	f := &Figure{
		ID:    "parscale",
		Title: "Deterministic parallel control round at 10k-100k servers (baseline numbers; all worker counts verified bit-identical)",
		Columns: []string{
			"servers", "vms", "energy_kwh", "mean_active_servers",
			"overload_pct", "migrations", "parity_ok",
		},
	}
	for _, p := range points {
		r := p.Baseline
		f.Add(
			float64(p.Servers),
			float64(p.VMs),
			r.EnergyKWh,
			r.MeanActiveServers,
			100*r.VMOverloadTimeFrac,
			float64(r.TotalLowMigrations+r.TotalHighMigrations),
			1,
		)
		f.Notef("%d servers / %d VMs: %.0f kWh, %.0f mean active, parity verified across every configured worker count",
			p.Servers, p.VMs, r.EnergyKWh, r.MeanActiveServers)
	}
	return f
}
