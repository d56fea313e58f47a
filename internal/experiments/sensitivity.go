package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/trace"
)

// SensitivityOptions parameterizes the §III sensitivity study on the
// migration-function parameters. The paper summarizes three findings
// (results "not reported for the sake of brevity"); this driver regenerates
// the data behind them:
//
//  1. Th must be above Ta, otherwise high migrations fire before packing can
//     exploit the CPU to the desired extent;
//  2. Tl should be set so active servers are never utilized under ~40%;
//  3. alpha and beta trade migration frequency against the time a server
//     may stay under-/over-utilized.
type SensitivityOptions struct {
	RunConfig

	Base    ecocloud.Config
	Gen     trace.GenConfig
	Power   dc.PowerModel
	Control time.Duration
	Sample  time.Duration

	ThValues   []float64
	TlValues   []float64
	AlphaBetas []float64
}

// DefaultSensitivityOptions sweeps around the paper's operating point at a
// reduced scale (the sweep multiplies run count; each point is a full
// simulation).
func DefaultSensitivityOptions() SensitivityOptions {
	gen := trace.DefaultGenConfig()
	gen.NumVMs = 1500
	gen.Horizon = 24 * time.Hour
	return SensitivityOptions{
		RunConfig:  RunConfig{Servers: 100, NumVMs: gen.NumVMs, Horizon: gen.Horizon, Seed: 1},
		Base:       ecocloud.DefaultConfig(),
		Gen:        gen,
		Power:      dc.DefaultPowerModel(),
		Control:    5 * time.Minute,
		Sample:     30 * time.Minute,
		ThValues:   []float64{0.85, 0.92, 0.95, 0.98},
		TlValues:   []float64{0.30, 0.40, 0.50, 0.60},
		AlphaBetas: []float64{0.10, 0.25, 0.50, 1.00},
	}
}

// SensitivityPoint is one sweep sample.
type SensitivityPoint struct {
	Param string
	Value float64

	MeanActive      float64
	MeanActiveUtil  float64 // mean utilization of active servers
	FracActiveUnder float64 // fraction of active-server samples under 0.4
	Migrations      int
	OverloadPct     float64
	EnergyKWh       float64
}

// Sensitivity runs the three sweeps and returns one point per (param,
// value). All sweeps share the workload.
func Sensitivity(opts SensitivityOptions) ([]SensitivityPoint, error) {
	gen := opts.Gen
	gen.NumVMs = opts.NumVMs
	gen.Horizon = opts.Horizon
	ws, err := trace.Generate(gen, opts.Seed)
	if err != nil {
		return nil, err
	}

	runPoint := func(param string, value float64, cfg ecocloud.Config) (SensitivityPoint, error) {
		pol, err := ecocloud.New(cfg, opts.Seed+1)
		if err != nil {
			return SensitivityPoint{}, fmt.Errorf("experiments: sensitivity %s=%v: %v", param, value, err)
		}
		// Sweep points run concurrently; a shared recorder would interleave
		// their journals nondeterministically, so points run unobserved.
		ccfg := opts.ClusterConfig(dc.StandardFleet(opts.Servers), ws, opts.Control, opts.Sample, opts.Power)
		ccfg.RecordServerUtil = true
		res, err := cluster.Run(ccfg, pol)
		if err != nil {
			return SensitivityPoint{}, err
		}
		meanUtil, fracUnder := activeUtilStats(res, 0.40)
		return SensitivityPoint{
			Param:           param,
			Value:           value,
			MeanActive:      res.MeanActiveServers,
			MeanActiveUtil:  meanUtil,
			FracActiveUnder: fracUnder,
			Migrations:      res.TotalLowMigrations + res.TotalHighMigrations,
			OverloadPct:     100 * res.VMOverloadTimeFrac,
			EnergyKWh:       res.EnergyKWh,
		}, nil
	}

	type job struct {
		param string
		value float64
		cfg   ecocloud.Config
	}
	var jobs []job
	for _, th := range opts.ThValues {
		cfg := opts.Base
		cfg.Th = th
		if cfg.Tl >= th { // keep the config valid for Th below Tl sweeps
			cfg.Tl = th - 0.1
		}
		jobs = append(jobs, job{"Th", th, cfg})
	}
	for _, tl := range opts.TlValues {
		cfg := opts.Base
		cfg.Tl = tl
		jobs = append(jobs, job{"Tl", tl, cfg})
	}
	for _, ab := range opts.AlphaBetas {
		cfg := opts.Base
		cfg.Alpha = ab
		cfg.Beta = ab
		jobs = append(jobs, job{"alpha_beta", ab, cfg})
	}
	out := make([]SensitivityPoint, len(jobs))
	err = forEach(len(jobs), func(i int) error {
		p, err := runPoint(jobs[i].param, jobs[i].value, jobs[i].cfg)
		if err != nil {
			return err
		}
		out[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SensitivityFigure materializes the sweep as a table, one row per point.
// The param column is encoded: 0=Th, 1=Tl, 2=alpha_beta.
func SensitivityFigure(points []SensitivityPoint) *Figure {
	f := &Figure{
		ID:    "sensitivity",
		Title: "Sensitivity of ecoCloud to the migration parameters (§III)",
		Columns: []string{
			"param_idx", "value", "mean_active", "mean_active_util",
			"frac_active_under_0.4", "migrations", "overload_pct", "energy_kwh",
		},
	}
	idx := map[string]float64{"Th": 0, "Tl": 1, "alpha_beta": 2}
	for _, p := range points {
		f.Add(idx[p.Param], p.Value, p.MeanActive, p.MeanActiveUtil,
			p.FracActiveUnder, float64(p.Migrations), p.OverloadPct, p.EnergyKWh)
		f.Notef("%s=%.2f: mean active %.1f, active util %.3f, under-0.4 frac %.3f, %d migrations, %.4f%% overload",
			p.Param, p.Value, p.MeanActive, p.MeanActiveUtil, p.FracActiveUnder, p.Migrations, p.OverloadPct)
	}
	return f
}

// activeUtilStats computes, over all (sample, server) cells with an active
// server, the mean utilization and the fraction under the given threshold.
func activeUtilStats(res *cluster.Result, under float64) (mean, fracUnder float64) {
	sum, count, below := 0.0, 0, 0
	for _, row := range res.ServerUtil {
		for _, u := range row {
			if u <= 0 {
				continue // hibernated servers record 0
			}
			sum += u
			count++
			if u < under {
				below++
			}
		}
	}
	if count == 0 {
		return 0, 0
	}
	return sum / float64(count), float64(below) / float64(count)
}
