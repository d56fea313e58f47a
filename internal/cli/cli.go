// Package cli holds the flag plumbing the cmd/ binaries share, so ecosim and
// ecobench (and the rest) bind the same names to the same config fields and
// cannot drift: the RunConfig quartet (-servers, -vms, -horizon, -seed), the
// ecoCloud policy parameters, and the telemetry flags (-progress, -profile)
// together with the run scope that turns them into a recorder, a JSONL
// journal, pprof profiles and a run manifest.
package cli

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/ecocloud"
	"repro/internal/experiments"
	"repro/internal/load"
)

// BindRunConfig registers the four cross-experiment flags against rc. The
// defaults shown in -help are whatever rc holds when Bind is called, so pass
// the experiment's Default*Options().RunConfig.
func BindRunConfig(fs *flag.FlagSet, rc *experiments.RunConfig) {
	fs.IntVar(&rc.Servers, "servers", rc.Servers, "number of servers")
	fs.IntVar(&rc.NumVMs, "vms", rc.NumVMs, "number of VMs in the workload")
	fs.DurationVar(&rc.Horizon, "horizon", rc.Horizon, "simulated time")
	fs.Uint64Var(&rc.Seed, "seed", rc.Seed, "master seed")
	fs.IntVar(&rc.Workers, "workers", rc.Workers, "control-round worker count (0 = sequential; any value is bit-identical)")
}

// BindEco registers the ecoCloud policy parameters against cfg, defaulting
// to the values cfg holds (normally ecocloud.DefaultConfig(), the paper's
// §III set).
func BindEco(fs *flag.FlagSet, cfg *ecocloud.Config) {
	fs.Float64Var(&cfg.Ta, "ta", cfg.Ta, "acceptance utilization threshold Ta")
	fs.Float64Var(&cfg.P, "p", cfg.P, "assignment shape parameter p")
	fs.Float64Var(&cfg.Tl, "tl", cfg.Tl, "low-migration threshold Tl")
	fs.Float64Var(&cfg.Th, "th", cfg.Th, "high-migration threshold Th")
	fs.Float64Var(&cfg.Alpha, "alpha", cfg.Alpha, "low-migration shape alpha")
	fs.Float64Var(&cfg.Beta, "beta", cfg.Beta, "high-migration shape beta")
	fs.DurationVar(&cfg.Grace, "grace", cfg.Grace, "post-activation always-accept window")
	fs.IntVar(&cfg.InviteSubset, "invite-subset", cfg.InviteSubset, "invite a random subset of this many servers (0 = broadcast)")
	fs.IntVar(&cfg.InviteGroups, "invite-groups", cfg.InviteGroups, "partition the fleet into this many invitation groups (0/1 = off)")
}

// LoadFlags are the arrival-process shape flags a load-driving binary
// exposes: the mode and IAT distribution as strings (resolved by Config),
// the rate curve knobs, and the per-VM marginals. Bind seeds the defaults
// from whatever the struct holds, so populate it with DefaultLoadFlags
// first.
type LoadFlags struct {
	Mode string
	IAT  string

	Rate    float64
	Initial int

	Amp  float64
	Peak float64

	BurstFactor float64
	BurstEvery  time.Duration
	BurstLen    time.Duration

	Life         time.Duration
	DemandMedian float64
	DemandSigma  float64
	MaxDemand    float64
}

// DefaultLoadFlags matches load.DefaultVMShape with a stress-mode Poisson
// stream; Initial -1 asks for the auto steady-state population
// (rate x mean lifetime).
func DefaultLoadFlags() LoadFlags {
	shape := load.DefaultVMShape()
	return LoadFlags{
		Mode:         "stress",
		IAT:          "exponential",
		Rate:         1000,
		Initial:      -1,
		Amp:          0.45,
		Peak:         14,
		BurstFactor:  3,
		BurstEvery:   2 * time.Hour,
		BurstLen:     30 * time.Minute,
		Life:         shape.MeanLifetime,
		DemandMedian: shape.DemandMedianMHz,
		DemandSigma:  shape.DemandSigma,
		MaxDemand:    shape.MaxDemandMHz,
	}
}

// BindLoad registers the load-shape flags against f's current values.
func BindLoad(fs *flag.FlagSet, f *LoadFlags) {
	fs.StringVar(&f.Mode, "mode", f.Mode, "arrival mode: trace, stress, burst, coldstart")
	fs.StringVar(&f.IAT, "iat", f.IAT, "inter-arrival distribution: exponential, uniform, equidistant")
	fs.Float64Var(&f.Rate, "rate", f.Rate, "base VM arrival rate per hour")
	fs.IntVar(&f.Initial, "initial", f.Initial, "VMs preloaded at t=0 (-1: steady-state rate*lifetime; coldstart forces 0)")
	fs.Float64Var(&f.Amp, "amp", f.Amp, "daily rate modulation amplitude (trace mode)")
	fs.Float64Var(&f.Peak, "peak", f.Peak, "daily peak hour (trace mode)")
	fs.Float64Var(&f.BurstFactor, "burst-factor", f.BurstFactor, "rate multiplier during bursts (burst mode)")
	fs.DurationVar(&f.BurstEvery, "burst-every", f.BurstEvery, "burst period (burst mode)")
	fs.DurationVar(&f.BurstLen, "burst-len", f.BurstLen, "burst length (burst mode)")
	fs.DurationVar(&f.Life, "life", f.Life, "mean VM lifetime (exponential)")
	fs.Float64Var(&f.DemandMedian, "demand-median", f.DemandMedian, "median VM demand in MHz (log-normal)")
	fs.Float64Var(&f.DemandSigma, "demand-sigma", f.DemandSigma, "log-normal sigma of VM demand")
	fs.Float64Var(&f.MaxDemand, "demand-max", f.MaxDemand, "VM demand cap in MHz")
}

// Config resolves the flags into a load.Config. Initial -1 becomes the
// steady-state population rate x E[lifetime] (0 for coldstart, which
// rejects any preload).
func (f LoadFlags) Config(horizon time.Duration, refCapacityMHz float64, seed uint64) (load.Config, error) {
	mode, err := load.ParseMode(f.Mode)
	if err != nil {
		return load.Config{}, err
	}
	iat, err := load.ParseIAT(f.IAT)
	if err != nil {
		return load.Config{}, err
	}
	initial := f.Initial
	if initial < 0 {
		if mode == load.ModeColdstart {
			initial = 0
		} else {
			initial = int(f.Rate * f.Life.Hours())
		}
	}
	cfg := load.Config{
		Mode:           mode,
		IAT:            iat,
		Horizon:        horizon,
		RatePerHour:    f.Rate,
		InitialVMs:     initial,
		DailyAmplitude: f.Amp,
		PeakHour:       f.Peak,
		BurstFactor:    f.BurstFactor,
		BurstEvery:     f.BurstEvery,
		BurstLen:       f.BurstLen,
		Shape: load.VMShape{
			MeanLifetime:    f.Life,
			DemandMedianMHz: f.DemandMedian,
			DemandSigma:     f.DemandSigma,
			MaxDemandMHz:    f.MaxDemand,
		},
		RefCapacityMHz: refCapacityMHz,
		Seed:           seed,
	}
	return cfg, cfg.Validate()
}

// Validate is a convenience wrapper so binaries report flag-driven config
// errors uniformly.
func Validate(cfg ecocloud.Config) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("invalid ecoCloud parameters: %w", err)
	}
	return nil
}

// defaultProgressInterval paces -progress output.
const defaultProgressInterval = 2 * time.Second
