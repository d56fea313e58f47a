package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/fluid"
	"repro/internal/trace"
)

// AssignOnlyOptions parameterizes the §IV experiment: the assignment
// procedure in isolation (migrations inhibited), run both in the simulator
// (Fig. 12) and in the fluid model fed with the lambda(t)/mu(t) extracted
// from the same workload (Fig. 13).
// AssignOnlyOptions embeds RunConfig with churn semantics: NumVMs is the
// initial VM population (Churn.InitialVMs) and Horizon the churn horizon;
// both are copied into Churn when the experiment runs.
type AssignOnlyOptions struct {
	RunConfig     // Servers paper: 100
	Cores     int // paper: 6 (2 GHz)

	Churn trace.ChurnConfig
	Eco   ecocloud.Config

	// Exact selects the combinatorial A_s for the model run; the paper uses
	// the approximate equations (11) at this scale.
	Exact bool
	// RateBucket is the granularity at which lambda/mu are extracted from
	// the workload.
	RateBucket time.Duration

	Control time.Duration
	Sample  time.Duration
}

// paperServers is the fleet size of the paper's Figs. 12-13.
const paperServers = 100

// DefaultAssignOnlyOptions returns the paper's Fig. 12/13 setup: 100
// six-core servers, 1,500 initial VMs spread round-robin (a non-consolidated
// start with most servers at 10–30% load), 18 hours starting at midnight.
func DefaultAssignOnlyOptions() AssignOnlyOptions {
	eco := ecocloud.DefaultConfig()
	eco.DisableMigration = true
	churn := trace.DefaultChurnConfig()
	return AssignOnlyOptions{
		RunConfig:  RunConfig{Servers: paperServers, NumVMs: churn.InitialVMs, Horizon: churn.Horizon, Seed: 1},
		Cores:      6,
		Churn:      churn,
		Eco:        eco,
		RateBucket: 30 * time.Minute,
		Control:    5 * time.Minute,
		Sample:     30 * time.Minute,
	}
}

// AssignOnlyResult bundles the simulator run, the model run, and the shared
// workload so Fig. 12 and Fig. 13 stay directly comparable.
type AssignOnlyResult struct {
	Sim      *cluster.Result
	Model    *fluid.Result
	Workload *trace.Set
	Servers  int
	// ActiveThreshold is the utilization above which a model server counts
	// as active.
	ActiveThreshold float64
	capacityMHz     float64
}

// AssignOnly runs both the simulation and the fluid model.
func AssignOnly(opts AssignOnlyOptions) (*AssignOnlyResult, error) {
	opts.Eco.DisableMigration = true // the experiment's defining constraint
	// RunConfig is canonical: NumVMs/Horizon drive the churn generator.
	opts.Churn.InitialVMs = opts.NumVMs
	opts.Churn.Horizon = opts.Horizon
	ws, err := trace.GenerateChurn(opts.Churn, opts.Seed)
	if err != nil {
		return nil, err
	}
	pol, err := ecocloud.New(opts.Eco, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	specs := dc.UniformFleet(opts.Servers, opts.Cores, 2000)
	ccfg := opts.ClusterConfig(specs, ws, opts.Control, opts.Sample, dc.DefaultPowerModel())
	ccfg.Horizon = opts.Churn.Horizon
	ccfg.Initial = cluster.SpreadRoundRobin
	ccfg.RecordServerUtil = true
	simRes, err := cluster.Run(ccfg, pol, cluster.WithObs(opts.Obs))
	if err != nil {
		return nil, err
	}

	// Fluid model fed with the rates extracted from the same workload
	// (the paper: "From the traces we computed the values of lambda(t) and
	// mu(t) and put the same values in the approximate differential
	// equations").
	capacity := float64(opts.Cores) * 2000
	lambda, muVM := ws.Rates(opts.Churn.Horizon, opts.RateBucket)
	muCore := make([]float64, len(muVM))
	for i, m := range muVM {
		muCore[i] = fluid.PerVMRate(m, opts.Cores)
	}
	meanDemand := ws.MeanDemandMHz(0)
	if meanDemand <= 0 {
		return nil, fmt.Errorf("experiments: churn workload has no initial demand")
	}
	fa, err := ecocloud.NewAssignProb(opts.Eco.Ta, opts.Eco.P)
	if err != nil {
		return nil, err
	}
	fcfg := fluid.Config{
		Ns:      opts.Servers,
		Nc:      opts.Cores,
		Lambda:  fluid.StepRate(lambda, opts.RateBucket),
		Mu:      fluid.StepRate(muCore, opts.RateBucket),
		VMLoad:  meanDemand / capacity,
		Fa:      fa,
		Exact:   opts.Exact,
		Dt:      time.Minute,
		SeedU:   0.02,
		OffU:    0.005,
		MassEps: 0.5,
	}
	initial := initialSpreadUtil(ws, opts.Servers, capacity)
	modelRes, err := fluid.Run(fcfg, initial, opts.Churn.Horizon, opts.Sample)
	if err != nil {
		return nil, err
	}
	return &AssignOnlyResult{
		Sim:             simRes,
		Model:           modelRes,
		Workload:        ws,
		Servers:         opts.Servers,
		ActiveThreshold: 0.01,
		capacityMHz:     capacity,
	}, nil
}

// initialSpreadUtil reproduces the cluster driver's SpreadRoundRobin: VMs
// alive at t=0, in (Start, ID) order, land on servers round-robin. The fluid
// model starts from the identical utilization vector, as Eq. (10) requires.
func initialSpreadUtil(ws *trace.Set, servers int, capacityMHz float64) []float64 {
	var initial []*trace.VM
	for _, vm := range ws.VMs {
		if vm.Start == 0 {
			initial = append(initial, vm)
		}
	}
	sort.Slice(initial, func(i, j int) bool { return initial[i].ID < initial[j].ID })
	u := make([]float64, servers)
	for i, vm := range initial {
		u[i%servers] += vm.DemandAt(0) / capacityMHz
	}
	return u
}

// Fig12 materializes Figure 12: per-server utilization from the simulation.
func (a *AssignOnlyResult) Fig12() *Figure {
	cols := append([]string{"time_h", "overall_load"}, serverCols(a.Servers)...)
	f := &Figure{
		ID:      "fig12",
		Title:   fmt.Sprintf("CPU utilization of %d servers, obtained with simulation", a.Servers),
		Columns: cols,
	}
	for i, t := range a.Sim.SampleTimes {
		row := make([]float64, 0, a.Servers+2)
		row = append(row, t.Hours(), a.Sim.OverallLoad.V[i])
		row = append(row, a.Sim.ServerUtil[i]...)
		f.Add(row...)
	}
	f.Notef("final active servers (simulation): %d of %d%s",
		a.Sim.FinalActiveServers, a.Servers, a.paper("45"))
	return f
}

// Fig13 materializes Figure 13: per-server utilization from the fluid model.
func (a *AssignOnlyResult) Fig13() *Figure {
	cols := append([]string{"time_h", "overall_load"}, serverCols(a.Servers)...)
	f := &Figure{
		ID:      "fig13",
		Title:   fmt.Sprintf("CPU utilization of %d servers, obtained with the analytical model", a.Servers),
		Columns: cols,
	}
	for i, t := range a.Model.Times {
		row := make([]float64, 0, a.Servers+2)
		row = append(row, t.Hours(), a.Workload.TotalDemandAt(t)/(float64(a.Servers)*a.capacityMHz))
		row = append(row, a.Model.U[i]...)
		f.Add(row...)
	}
	simFinal := a.Sim.FinalActiveServers
	modelFinal := a.Model.FinalActive(a.ActiveThreshold)
	f.Notef("final active servers (model): %d of %d%s", modelFinal, a.Servers, a.paper("43"))
	f.Notef("simulation vs model: %d vs %d active servers%s", simFinal, modelFinal, a.paper("45 vs 43"))
	return f
}

// paper returns the paper's count as a note's suffix, " (paper: v)", at
// the paper's fleet size, and nothing at any other, where it does not
// compare.
func (a *AssignOnlyResult) paper(v string) string {
	if a.Servers != paperServers {
		return ""
	}
	return " (paper: " + v + ")"
}

func serverCols(n int) []string {
	cols := make([]string, n)
	for s := 0; s < n; s++ {
		cols[s] = serverCol(s)
	}
	return cols
}
