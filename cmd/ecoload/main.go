// Command ecoload drives a cluster policy with a synthesized arrival
// process: the invitro-style load harness over the paper's simulator.
//
// Two shapes of run:
//
//   - Single run (default): build one workload from -mode/-iat/-rate and
//     simulate it, reporting the violation/rejection fractions, energy and
//     consolidation metrics, with the sampled series written to
//     <out>/load.csv.
//
//   - Ramp (-ramp): step the arrival rate from -ramp-start by -ramp-step
//     every -ramp-slot of simulated time, each slot an independent seeded
//     run with the first -warmup fraction excluded from measurement, until
//     the overload stop-rule fires (violation or rejection fraction above
//     -ramp-threshold in more than -ramp-tolerance slots). Reports the
//     knee — the highest sustained churn rate — and writes the whole
//     ladder to <out>/ramp.csv.
//
// Everything is a pure function of -seed: same flags, same seed — same
// workload, same knee, byte-identical CSVs, at any -workers count.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/baseline"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/load"
	"repro/internal/metrics"
)

func main() {
	eco := ecocloud.DefaultConfig()
	loadFlags := cli.DefaultLoadFlags()
	var obsFlags cli.ObsFlags
	var (
		policy  = flag.String("policy", "ecocloud", "placement policy: ecocloud or bfd")
		servers = flag.Int("servers", 100, "fleet size (uniform servers)")
		cores   = flag.Int("cores", 6, "cores per server")
		coreMHz = flag.Float64("core-mhz", 2000, "MHz per core")
		horizon = flag.Duration("horizon", 6*time.Hour, "simulated time (single run)")
		warmup  = flag.Float64("warmup", 0.5, "fraction of the run excluded from aggregate metrics")
		seed    = flag.Uint64("seed", 1, "master seed")
		workers = flag.Int("workers", 0, "control-round worker count (0 = sequential; any value is bit-identical)")
		outDir  = flag.String("out", "out", "directory for CSVs, run.json and journal.jsonl")

		ramp          = flag.Bool("ramp", false, "run a stepped rate ramp with the overload stop-rule instead of a single run")
		rampStart     = flag.Float64("ramp-start", 1000, "first slot's arrival rate per hour")
		rampStep      = flag.Float64("ramp-step", 400, "rate increment per slot")
		rampSlot      = flag.Duration("ramp-slot", 2*time.Hour, "simulated time per slot")
		rampSlots     = flag.Int("ramp-slots", 12, "maximum slots")
		rampThreshold = flag.Float64("ramp-threshold", 0.05, "violation/rejection fraction that marks a slot as breached")
		rampTolerance = flag.Int("ramp-tolerance", 2, "breached slots tolerated before the ramp halts")
	)
	cli.BindLoad(flag.CommandLine, &loadFlags)
	cli.BindEco(flag.CommandLine, &eco)
	obsFlags.Bind(flag.CommandLine)
	flag.Parse()

	if err := run(runArgs{
		eco: eco, loadFlags: loadFlags, obsFlags: obsFlags,
		policy: *policy, servers: *servers, cores: *cores, coreMHz: *coreMHz,
		horizon: *horizon, warmup: *warmup, seed: *seed, workers: *workers, outDir: *outDir,
		ramp: *ramp, rampStart: *rampStart, rampStep: *rampStep, rampSlot: *rampSlot,
		rampSlots: *rampSlots, rampThreshold: *rampThreshold, rampTolerance: *rampTolerance,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "ecoload:", err)
		os.Exit(1)
	}
}

type runArgs struct {
	eco       ecocloud.Config
	loadFlags cli.LoadFlags
	obsFlags  cli.ObsFlags

	policy         string
	servers, cores int
	coreMHz        float64
	horizon        time.Duration
	warmup         float64
	seed           uint64
	workers        int
	outDir         string
	ramp           bool
	rampStart      float64
	rampStep       float64
	rampSlot       time.Duration
	rampSlots      int
	rampThreshold  float64
	rampTolerance  int
}

// newPolicy builds the selected policy from a seed; BFD is deterministic
// and ignores it.
func (a runArgs) newPolicy(seed uint64) (cluster.Policy, error) {
	switch a.policy {
	case "ecocloud":
		return ecocloud.New(a.eco, seed)
	case "bfd":
		bcfg := baseline.DefaultConfig()
		bcfg.Power = dc.DefaultPowerModel()
		return baseline.NewBFD(bcfg)
	default:
		return nil, fmt.Errorf("unknown policy %q (have ecocloud, bfd)", a.policy)
	}
}

func run(a runArgs) error {
	if err := cli.Validate(a.eco); err != nil {
		return err
	}
	if a.servers <= 0 || a.cores <= 0 || a.coreMHz <= 0 {
		return fmt.Errorf("fleet %d x %d x %v MHz is not a fleet", a.servers, a.cores, a.coreMHz)
	}
	if a.warmup < 0 || a.warmup >= 1 {
		return fmt.Errorf("-warmup %v outside [0,1)", a.warmup)
	}
	if a.ramp {
		return a.runRamp()
	}
	return a.runSingle()
}

func (a runArgs) runSingle() (err error) {
	lc, err := a.loadFlags.Config(a.horizon, a.coreMHz*float64(a.cores), a.seed)
	if err != nil {
		return err
	}
	ws, err := load.Build(lc)
	if err != nil {
		return err
	}
	pol, err := a.newPolicy(a.seed)
	if err != nil {
		return err
	}
	scope, err := a.obsFlags.Start("ecoload", map[string]any{
		"load": lc, "policy": a.policy, "servers": a.servers, "warmup": a.warmup,
	}, a.seed, a.outDir)
	if err != nil {
		return err
	}
	defer func() { err = scope.Close(err) }()

	res, err := cluster.Run(cluster.RunConfig{
		Specs:           dc.UniformFleet(a.servers, a.cores, a.coreMHz),
		Workload:        ws,
		Horizon:         a.horizon,
		ControlInterval: 5 * time.Minute,
		SampleInterval:  30 * time.Minute,
		MeasureFrom:     time.Duration(a.warmup * float64(a.horizon)),
		PowerModel:      dc.DefaultPowerModel(),
		Workers:         a.workers,
	}, pol, cluster.WithObs(scope.Rec))
	if err != nil {
		return err
	}

	arrivals := 0
	for _, vm := range ws.VMs {
		if vm.Start > 0 {
			arrivals++
		}
	}
	fmt.Printf("%s / %s-%s load: %d servers, %d initial VMs + %d arrivals over %v\n",
		pol.Name(), lc.Mode, lc.IAT, a.servers, lc.InitialVMs, arrivals, a.horizon)
	fmt.Printf("  violation frac %.5f, saturations %d (%.4f of placements)\n",
		res.VMOverloadTimeFrac, res.Saturations, float64(res.Saturations)/float64(len(ws.VMs)))
	fmt.Printf("  energy %.2f kWh, mean active %.1f of %d, migrations %d low + %d high\n",
		res.EnergyKWh, res.MeanActiveServers, a.servers,
		res.TotalLowMigrations, res.TotalHighMigrations)

	if a.outDir != "" {
		path := filepath.Join(a.outDir, "load.csv")
		if err := writeSeriesCSV(path, res); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

func (a runArgs) runRamp() (err error) {
	template, err := a.loadFlags.Config(a.rampSlot, a.coreMHz*float64(a.cores), a.seed)
	if err != nil {
		return err
	}
	scope, err := a.obsFlags.Start("ecoload-ramp", map[string]any{
		"load": template, "policy": a.policy, "servers": a.servers,
		"ramp_start": a.rampStart, "ramp_step": a.rampStep, "ramp_slot": a.rampSlot.String(),
		"threshold": a.rampThreshold, "tolerance": a.rampTolerance, "warmup": a.warmup,
	}, a.seed, a.outDir)
	if err != nil {
		return err
	}
	defer func() { err = scope.Close(err) }()

	runner := load.NewClusterRunner(load.ClusterRunnerConfig{
		Specs:     dc.UniformFleet(a.servers, a.cores, a.coreMHz),
		NewPolicy: a.newPolicy,
		Load:      template,
		// The ramp owns the population: each slot preloads its own
		// steady-state fill unless the mode is coldstart.
		AutoPopulate:    true,
		ControlInterval: 5 * time.Minute,
		SampleInterval:  30 * time.Minute,
		PowerModel:      dc.DefaultPowerModel(),
		Workers:         a.workers,
	})
	res, err := load.Ramp(load.RampConfig{
		StartPerHour: a.rampStart,
		StepPerHour:  a.rampStep,
		Slot:         a.rampSlot,
		MaxSlots:     a.rampSlots,
		WarmupFrac:   a.warmup,
		Threshold:    a.rampThreshold,
		Tolerance:    a.rampTolerance,
		Seed:         a.seed,
	}, runner)
	if err != nil {
		return err
	}

	fmt.Printf("%s %s-%s ramp on %d servers: %v/h + %v/h per %v slot\n",
		a.policy, template.Mode, template.IAT, a.servers, a.rampStart, a.rampStep, a.rampSlot)
	for _, s := range res.Slots {
		mark := " "
		if s.Breach {
			mark = "x"
		}
		fmt.Printf("  [%s] slot %2d  %7.0f/h  violation %.5f  reject %.5f  active %.1f\n",
			mark, s.Index, s.RatePerHour, s.Metrics.ViolationFrac, s.Metrics.RejectFrac,
			s.Metrics.MeanActiveServers)
	}
	if res.Halted {
		fmt.Printf("stop-rule halted: knee %.0f VMs/h (%.1f per server-hour)\n",
			res.KneePerHour, res.KneePerHour/float64(a.servers))
	} else {
		fmt.Printf("ladder exhausted: knee >= %.0f VMs/h (%.1f per server-hour, lower bound)\n",
			res.KneePerHour, res.KneePerHour/float64(a.servers))
	}

	if a.outDir != "" {
		path := filepath.Join(a.outDir, "ramp.csv")
		if err := writeRampCSV(path, a.servers, res); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// writeSeriesCSV dumps the sampled series of a single run.
func writeSeriesCSV(path string, res *cluster.Result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "t_hours,active_servers,power_w,overall_load,overdemand_pct")
	series := []*metrics.Series{res.ActiveServers, res.PowerW, res.OverallLoad, res.OverDemandPct}
	for i := range res.ActiveServers.T {
		fmt.Fprintf(f, "%g", res.ActiveServers.T[i].Hours())
		for _, s := range series {
			fmt.Fprintf(f, ",%g", s.V[i])
		}
		fmt.Fprintln(f)
	}
	return f.Close()
}

// writeRampCSV dumps the ladder: one row per slot.
func writeRampCSV(path string, servers int, res *load.RampResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# knee_per_hour=%g halted=%v\n", res.KneePerHour, res.Halted)
	fmt.Fprintln(f, "slot,rate_per_hour,rate_per_server_hour,violation_frac,reject_frac,mean_active_servers,energy_kwh,arrivals,breach")
	for _, s := range res.Slots {
		breach := 0
		if s.Breach {
			breach = 1
		}
		fmt.Fprintf(f, "%d,%g,%g,%g,%g,%g,%g,%d,%d\n",
			s.Index, s.RatePerHour, s.RatePerHour/float64(servers),
			s.Metrics.ViolationFrac, s.Metrics.RejectFrac,
			s.Metrics.MeanActiveServers, s.Metrics.EnergyKWh,
			s.Metrics.Arrivals, breach)
	}
	return f.Close()
}
