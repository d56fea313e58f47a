package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Workload sizes. Each run takes tens of milliseconds, so one 20 s budget
// yields hundreds of timed runs.
const (
	dailyServers = 200
	dailyVMs     = 3000
	dailyHorizon = 24 * time.Hour

	bandServers = 2000
	bandPerVM   = 10
	bandHorizon = 2 * time.Hour
)

// clusterRun is the part the two cluster.Run workloads share: a ready
// configuration, the policy parameters, and the reference result.
type clusterRun struct {
	cfg     cluster.RunConfig
	eco     ecocloud.Config
	polSeed uint64
	ref     *cluster.Result
}

// once runs cfg with a fresh policy.
func (c *clusterRun) once(cfg cluster.RunConfig) (*cluster.Result, error) {
	pol, err := ecocloud.New(c.eco, c.polSeed)
	if err != nil {
		return nil, err
	}
	return cluster.Run(cfg, pol)
}

// oracles checks the reference against the program's own entry point
// (same inputs, so the results must be identical) and against the naive
// demand path on the parallel engine, whose results the demand kernel and
// the fork-join pool promise to reproduce bit for bit.
func (c *clusterRun) oracles(entry *cluster.Result) error {
	if err := sameResult(c.ref, entry, false); err != nil {
		return fmt.Errorf("harness run differs from the experiment's own run: %w", err)
	}
	naive := c.cfg
	naive.DisableDemandCache = true
	naive.Workers = 1
	res, err := c.once(naive)
	if err != nil {
		return err
	}
	if err := sameResult(c.ref, res, true); err != nil {
		return fmt.Errorf("naive demand path on the pool differs: %w", err)
	}
	return nil
}

func (c *clusterRun) run(lay layers) (runStats, error) {
	pol, err := ecocloud.New(c.eco, c.polSeed)
	if err != nil {
		return runStats{}, err
	}
	var res *cluster.Result
	if lay == nil {
		st, err := inProcess(nil, func() (err error) {
			res, err = cluster.Run(c.cfg, pol)
			return err
		})
		if err != nil {
			return st, err
		}
		return st, sameResult(c.ref, res, false)
	}

	rec := obs.NewRecorder(nil, nil)
	tp := &timedPolicy{Policy: pol}
	st, err := inProcess(lay, func() (err error) {
		res, err = cluster.Run(c.cfg, tp, cluster.WithObs(rec))
		return err
	})
	if err != nil {
		return st, err
	}
	if err := sameResult(c.ref, res, false); err != nil {
		return st, fmt.Errorf("traced run: %w", err)
	}
	snap := rec.Snapshot()
	handler := func(name string) time.Duration {
		return time.Duration(snap.Timers["sim.handler."+name].TotalNS)
	}
	control, sample, departure := handler("control"), handler("sample"), handler("departure")
	lay.share("policy_pct", tp.arrival+tp.control, st.wall)
	lay.share("control_pct", control-tp.control, st.wall)
	lay.share("sample_pct", sample, st.wall)
	lay.share("departure_pct", departure, st.wall)
	lay.share("engine_pct", st.wall-control-sample-departure-tp.arrival, st.wall)
	lay.add("sim_events", float64(snap.Counters["sim.events"]))
	lay.add("placements", float64(snap.Counters["cluster.assignments"]))
	lay.add("migrations", float64(res.TotalLowMigrations+res.TotalHighMigrations))
	lay.add("activations", float64(res.TotalActivations))
	lay.add("demand_cache_hits", float64(res.DemandCache.Hits))
	lay.add("demand_cache_misses", float64(res.DemandCache.Misses))
	return st, nil
}

// timedPolicy times the policy's callbacks from outside the policy.
type timedPolicy struct {
	cluster.Policy
	arrival, control time.Duration
}

func (p *timedPolicy) OnArrival(env cluster.Env, vm *trace.VM) {
	start := time.Now()
	p.Policy.OnArrival(env, vm)
	p.arrival += time.Since(start)
}

func (p *timedPolicy) OnControl(env cluster.Env) {
	start := time.Now()
	p.Policy.OnControl(env)
	p.control += time.Since(start)
}

// sameResult demands bit-identical results. ignoreCache skips the demand
// kernel's hit/miss counters, which legitimately differ when the kernel is
// off or the pool prewarms it.
func sameResult(want, got *cluster.Result, ignoreCache bool) error {
	if want == nil {
		return fmt.Errorf("no reference result")
	}
	w, g := *want, *got
	if ignoreCache {
		w.DemandCache, g.DemandCache = dc.DemandCacheStats{}, dc.DemandCacheStats{}
	}
	if !reflect.DeepEqual(w, g) {
		return fmt.Errorf("results differ: energy %v vs %v kWh, migrations %d+%d vs %d+%d, final active %d vs %d",
			w.EnergyKWh, g.EnergyKWh, w.TotalLowMigrations, w.TotalHighMigrations,
			g.TotalLowMigrations, g.TotalHighMigrations, w.FinalActiveServers, g.FinalActiveServers)
	}
	return nil
}

// daily is the paper's Figs. 6–11 scenario at a quarter of its fleet over
// one day: churn-free trace-driven demand, arrivals through the policy,
// migrations and server switches.
type daily struct {
	opts experiments.DailyOptions
	clusterRun
}

func (d *daily) setUp(seed uint64) error {
	opts := experiments.DefaultDailyOptions()
	opts.Servers, opts.NumVMs, opts.Horizon, opts.Seed = dailyServers, dailyVMs, dailyHorizon, seed
	gen := opts.Gen
	gen.NumVMs, gen.Horizon = opts.NumVMs, opts.Horizon
	ws, err := trace.Generate(gen, seed)
	if err != nil {
		return err
	}
	// The same run experiments.Daily builds.
	cfg := opts.ClusterConfig(dc.StandardFleet(opts.Servers), ws, opts.Control, opts.Sample, opts.Power)
	cfg.RecordServerUtil = true
	d.opts = opts
	d.clusterRun = clusterRun{cfg: cfg, eco: opts.Eco, polSeed: seed + 1}
	return nil
}

func (d *daily) check() error {
	var err error
	if d.ref, err = d.once(d.cfg); err != nil {
		return err
	}
	entry, err := experiments.Daily(d.opts)
	if err != nil {
		return err
	}
	// The paper's claims, with this scale's margins: consolidation near
	// the theoretical minimum (1.4-1.5x here over one day), and almost no
	// VM-time on overloaded servers (paper: never above 0.02%).
	fig7 := entry.Fig7()
	var active, least float64
	for i := range fig7.Rows {
		active += fig7.Column("active_servers")[i]
		least += fig7.Column("theoretical_min")[i]
	}
	if ratio := active / least; least <= 0 || ratio < 1 || ratio > 1.75 {
		return fmt.Errorf("mean active servers %.3fx the theoretical minimum", ratio)
	}
	if f := entry.Run.VMOverloadTimeFrac; f > 0.001 {
		return fmt.Errorf("%.4f%% of VM-time on overloaded servers", 100*f)
	}
	return d.oracles(entry.Run)
}

// steadyBand is the parscale workload: every VM pre-placed round-robin with
// demand redrawn each epoch inside (Tl, Th), so every control tick is pure
// per-server work — demand refill, overload observation, energy — with no
// arrivals, migrations or wake-ups.
type steadyBand struct {
	opts experiments.ParScaleOptions
	pol  cluster.Policy
	clusterRun
}

func (s *steadyBand) setUp(seed uint64) error {
	opts := experiments.DefaultParScaleOptions()
	opts.Horizon, opts.Seed, opts.VMsPerServer = bandHorizon, seed, bandPerVM
	opts.FleetSizes, opts.WorkerCounts = []int{bandServers}, []int{0, 1}
	cfg, pol, err := experiments.ParScaleCell(opts, bandServers, 0)
	if err != nil {
		return err
	}
	s.opts, s.pol = opts, pol
	s.clusterRun = clusterRun{cfg: cfg, eco: opts.Eco, polSeed: seed + 1}
	return nil
}

func (s *steadyBand) check() error {
	// The reference runs with the cell's own policy; every timed run builds
	// a fresh one, so a wrong policy seed shows as a mismatch.
	var err error
	if s.ref, err = cluster.Run(s.cfg, s.pol); err != nil {
		return err
	}
	r := s.ref
	if r.TotalLowMigrations+r.TotalHighMigrations+r.TotalActivations+r.TotalHibernations+r.Saturations != 0 ||
		r.FinalActiveServers != bandServers {
		return fmt.Errorf("band not steady: %d+%d migrations, %d activations, %d hibernations, %d saturations, %d of %d active",
			r.TotalLowMigrations, r.TotalHighMigrations, r.TotalActivations, r.TotalHibernations,
			r.Saturations, r.FinalActiveServers, bandServers)
	}
	// The experiment itself verifies Workers=1 against Workers=0.
	points, err := experiments.ParScale(s.opts)
	if err != nil {
		return err
	}
	return s.oracles(points[0].Baseline)
}
