package experiments

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ForkedSweepOptions parameterizes the checkpoint-branched sensitivity
// study. One base-config run is checkpointed at Warmup; every sweep cell
// then FORKS from that shared warm prefix instead of re-simulating it. All
// cells therefore share an identical history up to the branch point — the
// parameter under study is the only thing that differs — and the prefix is
// paid for once instead of once per cell.
//
// The correctness proof rides along: the base-config cell (an identity fork
// of the checkpoint) is byte-compared — every series sample as hex floats,
// every aggregate, the full event journal — against a from-scratch
// uninterrupted base run. Any checkpoint/restore lossiness fails the
// experiment rather than skewing the sweep.
type ForkedSweepOptions struct {
	RunConfig

	Base    ecocloud.Config
	Gen     trace.GenConfig
	Power   dc.PowerModel
	Control time.Duration
	Sample  time.Duration

	// Warmup is the shared-prefix length: the checkpoint is captured at the
	// end of the control tick at this instant. Must be a positive multiple
	// of Control, before the horizon.
	Warmup time.Duration

	// The branch grid: Th and Tl values branched from the warm prefix, plus
	// labeled replicate branches of the base config whose rng streams are
	// re-seeded through checkpoint.Fork — identical past, decorrelated
	// future — to estimate run-to-run spread.
	ThValues   []float64
	TlValues   []float64
	Replicates int
}

// DefaultForkedSweepOptions is a half-day study at moderate scale: the sweep
// multiplies run count, but each cell only simulates the post-branch suffix.
func DefaultForkedSweepOptions() ForkedSweepOptions {
	gen := trace.DefaultGenConfig()
	gen.NumVMs = 600
	gen.Horizon = 12 * time.Hour
	return ForkedSweepOptions{
		RunConfig:  RunConfig{Servers: 60, NumVMs: gen.NumVMs, Horizon: gen.Horizon, Seed: 1},
		Base:       ecocloud.DefaultConfig(),
		Gen:        gen,
		Power:      dc.DefaultPowerModel(),
		Control:    5 * time.Minute,
		Sample:     30 * time.Minute,
		Warmup:     3 * time.Hour,
		ThValues:   []float64{0.85, 0.92, 0.98},
		TlValues:   []float64{0.30, 0.40, 0.50},
		Replicates: 3,
	}
}

// ForkedSweepPoint is one branched cell. Param is "base", "Th", "Tl" or
// "replicate" (Value then holds the replicate index).
type ForkedSweepPoint struct {
	Param string
	Value float64

	MeanActive  float64
	Migrations  int
	OverloadPct float64
	EnergyKWh   float64
}

// ForkedSweepResult carries the sweep points and the correctness proof.
type ForkedSweepResult struct {
	Points []ForkedSweepPoint
	// ProofBytes is the size of the byte-compared output over which the
	// identity-forked base cell matched the from-scratch run exactly.
	ProofBytes int
}

// fingerprintResult serializes everything the fork proof compares: every
// sampled series with hex-exact floats, the aggregates, and the event
// journal verbatim.
func fingerprintResult(res *cluster.Result, journal []byte) []byte {
	var b bytes.Buffer
	hexF := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	series := func(s *struct {
		name string
		t    []time.Duration
		v    []float64
	}) {
		fmt.Fprintf(&b, "series %s:", s.name)
		for i := range s.v {
			fmt.Fprintf(&b, " %d=%s", int64(s.t[i]), hexF(s.v[i]))
		}
		b.WriteByte('\n')
	}
	for _, s := range []struct {
		name string
		t    []time.Duration
		v    []float64
	}{
		{"active_servers", res.ActiveServers.T, res.ActiveServers.V},
		{"power_w", res.PowerW.T, res.PowerW.V},
		{"overall_load", res.OverallLoad.T, res.OverallLoad.V},
		{"overdemand_pct", res.OverDemandPct.T, res.OverDemandPct.V},
		{"low_migrations", res.LowMigrations.T, res.LowMigrations.V},
		{"high_migrations", res.HighMigrations.T, res.HighMigrations.V},
		{"activations", res.Activations.T, res.Activations.V},
		{"hibernations", res.Hibernations.T, res.Hibernations.V},
	} {
		s := s
		series(&s)
	}
	fmt.Fprintf(&b, "agg %s %s %s %s %d %d %d %d %d %d\n",
		hexF(res.EnergyKWh), hexF(res.MeanActiveServers),
		hexF(res.VMOverloadTimeFrac), hexF(res.GrantedFracInOverload),
		res.TotalLowMigrations, res.TotalHighMigrations,
		res.TotalActivations, res.TotalHibernations,
		res.Saturations, res.FinalActiveServers)
	b.WriteString("journal:\n")
	b.Write(journal)
	return b.Bytes()
}

// journalTo attaches a recorder that journals a run's data-center events
// into events.
func journalTo(events *bytes.Buffer) cluster.Option {
	return cluster.WithObs(obs.NewRecorder(nil, obs.NewJournal(events)))
}

// ForkedSweep warms the shared prefix, proves the branch machinery lossless,
// and runs the grid. Cells run concurrently; each resumes from its own deep
// fork of the checkpoint.
func ForkedSweep(opts ForkedSweepOptions) (*ForkedSweepResult, error) {
	gen := opts.Gen
	gen.NumVMs = opts.NumVMs
	gen.Horizon = opts.Horizon
	ws, err := trace.Generate(gen, opts.Seed)
	if err != nil {
		return nil, err
	}
	// Cells run concurrently, so they run untraced (see ClusterConfig); only
	// the proof legs journal, each into its own buffer.
	baseCluster := opts.ClusterConfig(dc.StandardFleet(opts.Servers), ws, opts.Control, opts.Sample, opts.Power)

	// Warm prefix: base config to Warmup, checkpoint, stop.
	var ck *checkpoint.Checkpoint
	var prefixLog bytes.Buffer
	basePol, err := ecocloud.New(opts.Base, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	if _, err := cluster.Run(baseCluster, basePol, journalTo(&prefixLog),
		cluster.WithCheckpointAt(opts.Warmup, func(c *checkpoint.Checkpoint) error { ck = c; return nil }),
		cluster.WithCheckpointStop(),
	); err != nil {
		return nil, fmt.Errorf("experiments: forkedsweep warmup: %v", err)
	}

	// Proof leg 1: from-scratch uninterrupted base run.
	var scratchLog bytes.Buffer
	scratchPol, err := ecocloud.New(opts.Base, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	scratchRes, err := cluster.Run(baseCluster, scratchPol, journalTo(&scratchLog))
	if err != nil {
		return nil, fmt.Errorf("experiments: forkedsweep scratch run: %v", err)
	}
	want := fingerprintResult(scratchRes, scratchLog.Bytes())

	// One branched cell: fork the checkpoint (empty label = identity,
	// otherwise a deterministic rng re-seed) and resume under cfg.
	runBranch := func(cfg ecocloud.Config, label string, extra ...cluster.Option) (*cluster.Result, error) {
		branch, err := ck.Fork(label)
		if err != nil {
			return nil, err
		}
		pol, err := ecocloud.New(cfg, opts.Seed+1)
		if err != nil {
			return nil, err
		}
		return cluster.Run(baseCluster, pol, append(extra, cluster.WithResume(branch))...)
	}

	// Proof leg 2: the identity-forked base cell must reproduce leg 1's
	// bytes exactly, with the prefix journal spliced before the suffix one.
	var suffixLog bytes.Buffer
	forkRes, err := runBranch(opts.Base, "", journalTo(&suffixLog))
	if err != nil {
		return nil, fmt.Errorf("experiments: forkedsweep proof cell: %v", err)
	}
	spliced := append(append([]byte(nil), prefixLog.Bytes()...), suffixLog.Bytes()...)
	got := fingerprintResult(forkRes, spliced)
	if !bytes.Equal(got, want) {
		return nil, fmt.Errorf("experiments: forkedsweep proof FAILED: identity fork diverges from the from-scratch run (%d vs %d bytes)", len(got), len(want))
	}

	// The grid. The proven base cell is point zero.
	point := func(param string, value float64, res *cluster.Result) ForkedSweepPoint {
		return ForkedSweepPoint{
			Param:       param,
			Value:       value,
			MeanActive:  res.MeanActiveServers,
			Migrations:  res.TotalLowMigrations + res.TotalHighMigrations,
			OverloadPct: 100 * res.VMOverloadTimeFrac,
			EnergyKWh:   res.EnergyKWh,
		}
	}
	type job struct {
		param string
		value float64
		cfg   ecocloud.Config
		label string
	}
	var jobs []job
	for _, th := range opts.ThValues {
		cfg := opts.Base
		cfg.Th = th
		if cfg.Tl >= th {
			cfg.Tl = th - 0.1
		}
		jobs = append(jobs, job{"Th", th, cfg, ""})
	}
	for _, tl := range opts.TlValues {
		cfg := opts.Base
		cfg.Tl = tl
		jobs = append(jobs, job{"Tl", tl, cfg, ""})
	}
	for i := 1; i <= opts.Replicates; i++ {
		jobs = append(jobs, job{"replicate", float64(i), opts.Base, "rep/" + strconv.Itoa(i)})
	}
	cells := make([]ForkedSweepPoint, len(jobs))
	err = forEach(len(jobs), func(i int) error {
		res, err := runBranch(jobs[i].cfg, jobs[i].label)
		if err != nil {
			return fmt.Errorf("experiments: forkedsweep %s=%v: %v", jobs[i].param, jobs[i].value, err)
		}
		cells[i] = point(jobs[i].param, jobs[i].value, res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &ForkedSweepResult{ProofBytes: len(want)}
	out.Points = append(out.Points, point("base", 0, forkRes))
	out.Points = append(out.Points, cells...)
	return out, nil
}

// Figure materializes the sweep, one row per branched cell. The param column
// is encoded: 0=base, 1=Th, 2=Tl, 3=replicate.
func (r *ForkedSweepResult) Figure() *Figure {
	f := &Figure{
		ID:    "forkedsweep",
		Title: "Checkpoint-branched sensitivity sweep (shared warm prefix)",
		Columns: []string{
			"param_idx", "value", "mean_active", "migrations", "overload_pct", "energy_kwh",
		},
	}
	idx := map[string]float64{"base": 0, "Th": 1, "Tl": 2, "replicate": 3}
	for _, p := range r.Points {
		f.Add(idx[p.Param], p.Value, p.MeanActive, float64(p.Migrations), p.OverloadPct, p.EnergyKWh)
		f.Notef("%s=%.2f: mean active %.1f, %d migrations, %.4f%% overload, %.2f kWh",
			p.Param, p.Value, p.MeanActive, p.Migrations, p.OverloadPct, p.EnergyKWh)
	}
	f.Notef("identity-fork proof: %d bytes compared equal to the from-scratch run", r.ProofBytes)
	return f
}
