package experiments

import (
	"strconv"
	"time"

	"repro/internal/bins"
	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/trace"
)

// DailyOptions parameterizes the two-day trace-driven experiment (§III) that
// produces Figures 6–11. Servers is the fleet size (paper: 400, thirds of
// 4/6/8 cores), NumVMs the workload size (paper: 6,000), Horizon the
// simulated span (paper: 48 hours from midnight).
type DailyOptions struct {
	RunConfig

	Eco     ecocloud.Config
	Gen     trace.GenConfig
	Power   dc.PowerModel
	Control time.Duration // migration-scan cadence
	Sample  time.Duration // metric cadence (paper: 30 minutes)

	// Cluster options forwarded to cluster.Run after the recorder —
	// checkpoint capture and resume. Nil for a plain run. Excluded from the
	// run manifest: options are closures, not configuration values.
	Cluster []cluster.Option `json:"-"`
}

// DefaultDailyOptions returns the paper's §III configuration: Ta=0.90 p=3
// Tl=0.50 Th=0.95 alpha=beta=0.25, 400 servers, 6,000 VMs, 48 hours.
func DefaultDailyOptions() DailyOptions {
	gen := trace.DefaultGenConfig()
	return DailyOptions{
		RunConfig: RunConfig{Servers: 400, NumVMs: gen.NumVMs, Horizon: gen.Horizon, Seed: 1},
		Eco:       ecocloud.DefaultConfig(),
		Gen:       gen,
		Power:     dc.DefaultPowerModel(),
		Control:   5 * time.Minute,
		Sample:    30 * time.Minute,
	}
}

// scale shrinks the generator to the requested VM count and horizon.
func (o DailyOptions) genConfig() trace.GenConfig {
	g := o.Gen
	g.NumVMs = o.NumVMs
	g.Horizon = o.Horizon
	return g
}

// DailyResult bundles the run with the figures extracted from it.
type DailyResult struct {
	Run      *cluster.Result
	Workload *trace.Set
	Servers  int
	// TaForBound is the packing threshold the theoretical-minimum bound of
	// Fig. 7 uses (the run's Ta).
	TaForBound float64
}

// DailyOptionsFor returns the daily run a request asks for: the paper's
// defaults, scaled and overridden by req, under req's ecoCloud parameters.
// The registry's daily and replication entries and ecobench's daily-only
// flags all start from it.
func DailyOptionsFor(req RunRequest) DailyOptions {
	opts := DefaultDailyOptions()
	opts.RunConfig = req.Apply(opts.RunConfig)
	req.eco(&opts.Eco)
	return opts
}

// Daily generates the synthetic two-day workload and runs the scenario on
// it (DailyOn); call Figures to materialize Figs. 6–11.
func Daily(opts DailyOptions) (*DailyResult, error) {
	ws, err := trace.Generate(opts.genConfig(), opts.Seed)
	if err != nil {
		return nil, err
	}
	return DailyOn(opts, ws)
}

// DailyOn runs the two-day scenario under ecoCloud on a workload the caller
// has built, such as a real PlanetLab archive, and returns the raw result.
// opts.NumVMs and opts.Gen are not read: ws is the workload.
func DailyOn(opts DailyOptions, ws *trace.Set) (*DailyResult, error) {
	pol, err := ecocloud.New(opts.Eco, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	cfg := opts.ClusterConfig(dc.StandardFleet(opts.Servers), ws, opts.Control, opts.Sample, opts.Power)
	cfg.RecordServerUtil = true
	res, err := cluster.Run(cfg, pol, append([]cluster.Option{cluster.WithObs(opts.Obs)}, opts.Cluster...)...)
	if err != nil {
		return nil, err
	}
	return &DailyResult{Run: res, Workload: ws, Servers: opts.Servers, TaForBound: opts.Eco.Ta}, nil
}

// Fig6 materializes Figure 6: per-server CPU utilization over time with the
// overall load as reference. Columns: time_h, overall_load, s0..sN-1.
func (d *DailyResult) Fig6() *Figure {
	cols := make([]string, 0, d.Servers+2)
	cols = append(cols, "time_h", "overall_load")
	for s := 0; s < d.Servers; s++ {
		cols = append(cols, serverCol(s))
	}
	f := &Figure{
		ID:      "fig6",
		Title:   "CPU utilization of the servers during two consecutive days",
		Columns: cols,
	}
	for i, t := range d.Run.SampleTimes {
		row := make([]float64, 0, d.Servers+2)
		row = append(row, t.Hours(), d.Run.OverallLoad.V[i])
		row = append(row, d.Run.ServerUtil[i]...)
		f.Add(row...)
	}
	return f
}

// Fig7 materializes Figure 7: the number of active servers over time,
// alongside two references for the abstract's "efficiency very close to the
// theoretical minimum": the fluid capacity bound (largest servers packed to
// Ta — a true lower bound that ignores item granularity) and the offline
// First-Fit-Decreasing packing of the instantaneous VM set (an *achievable*
// static packing, i.e. what an omniscient repacker could do at that moment).
func (d *DailyResult) Fig7() *Figure {
	f := &Figure{
		ID:      "fig7",
		Title:   "Number of active servers during two consecutive days",
		Columns: []string{"time_h", "active_servers", "theoretical_min", "ffd_offline"},
	}
	specs := dc.StandardFleet(d.Servers)
	binCaps := make([]float64, len(specs))
	for i, sp := range specs {
		binCaps[i] = d.TaForBound * sp.CapacityMHz()
	}
	var sumActive, sumMin, sumFFD float64
	for i, t := range d.Run.ActiveServers.T {
		min := float64(dc.MinServersFor(specs, d.Workload.TotalDemandAt(t), d.TaForBound))
		ffd := min
		if items := aliveDemands(d.Workload, t); len(items) > 0 {
			if used, _, err := bins.FFD(bins.Problem{Items: items, Bins: binCaps}); err == nil {
				ffd = float64(used)
			}
		} else {
			ffd = 0
		}
		f.Add(t.Hours(), d.Run.ActiveServers.V[i], min, ffd)
		sumActive += d.Run.ActiveServers.V[i]
		sumMin += min
		sumFFD += ffd
	}
	f.Notef("mean active servers: %.1f of %d", d.Run.MeanActiveServers, d.Servers)
	if sumMin > 0 {
		f.Notef("mean active / theoretical minimum = %.3f (paper: 'very close to the theoretical minimum')",
			sumActive/sumMin)
	}
	if sumFFD > 0 {
		f.Notef("mean active / offline FFD packing = %.3f (vs an omniscient instantaneous repacker)",
			sumActive/sumFFD)
	}
	return f
}

// aliveDemands collects the instantaneous demands of VMs alive at t,
// clamped to the largest usable bin so transient overload spikes do not
// make the offline instance infeasible.
func aliveDemands(ws *trace.Set, t time.Duration) []float64 {
	out := make([]float64, 0, len(ws.VMs))
	for _, vm := range ws.VMs {
		if d := vm.DemandAt(t); d > 0 {
			out = append(out, d)
		}
	}
	return out
}

// Fig8 materializes Figure 8: the power consumed by the data center.
func (d *DailyResult) Fig8() *Figure {
	f := &Figure{
		ID:      "fig8",
		Title:   "Power consumed by the data center (W)",
		Columns: []string{"time_h", "power_w"},
	}
	for i, t := range d.Run.PowerW.T {
		f.Add(t.Hours(), d.Run.PowerW.V[i])
	}
	f.Notef("total energy: %.1f kWh over %.0f h", d.Run.EnergyKWh, d.Run.Horizon.Hours())
	return f
}

// Fig9 materializes Figure 9: low and high migrations per hour.
func (d *DailyResult) Fig9() *Figure {
	f := &Figure{
		ID:      "fig9",
		Title:   "Number of low and high migrations per hour",
		Columns: []string{"time_h", "low_per_hour", "high_per_hour"},
	}
	low, high := d.Run.LowMigrations, d.Run.HighMigrations
	for i, t := range low.T {
		h := 0.0
		if i < len(high.V) {
			h = high.V[i]
		}
		f.Add(t.Hours(), low.V[i], h)
	}
	f.Notef("total migrations: %d low, %d high; peak rate %.0f/hour (paper: always < 200/hour)",
		d.Run.TotalLowMigrations, d.Run.TotalHighMigrations, d.Run.MaxMigrationsPerHour)
	return f
}

// Fig10 materializes Figure 10: server switches (activations/hibernations)
// per hour.
func (d *DailyResult) Fig10() *Figure {
	f := &Figure{
		ID:      "fig10",
		Title:   "Number of server switches per hour",
		Columns: []string{"time_h", "activations_per_hour", "hibernations_per_hour"},
	}
	act, hib := d.Run.Activations, d.Run.Hibernations
	for i, t := range act.T {
		f.Add(t.Hours(), act.V[i], hib.V[i])
	}
	f.Notef("total switches: %d activations, %d hibernations",
		d.Run.TotalActivations, d.Run.TotalHibernations)
	return f
}

// Fig11 materializes Figure 11: the percentage of time in which demanded CPU
// cannot be granted because of overload.
func (d *DailyResult) Fig11() *Figure {
	f := &Figure{
		ID:      "fig11",
		Title:   "Fraction of time of CPU over-demand (%)",
		Columns: []string{"time_h", "overdemand_pct"},
	}
	for i, t := range d.Run.OverDemandPct.T {
		f.Add(t.Hours(), d.Run.OverDemandPct.V[i])
	}
	f.Notef("overall VM-time in overload: %.5f%% (paper: never above 0.02%%)",
		100*d.Run.VMOverloadTimeFrac)
	f.Notef("violation episodes <= 1 control tick: %.3f (paper analogue: >98%% shorter than 30 s)",
		d.Run.Episodes.FractionShorterThan(d.Run.Episodes.Tick))
	f.Notef("CPU granted during overload: %.4f (paper: >= 98%%)", d.Run.GrantedFracInOverload)
	return f
}

// Figures materializes all six figures of the daily experiment.
func (d *DailyResult) Figures() []*Figure {
	return []*Figure{d.Fig6(), d.Fig7(), d.Fig8(), d.Fig9(), d.Fig10(), d.Fig11()}
}

// serverCol names per-server columns consistently across Figs. 6, 12, 13.
func serverCol(s int) string { return "s" + strconv.Itoa(s) }
