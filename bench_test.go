// Package repro's top-level benchmarks regenerate every evaluation artifact
// of the paper — one benchmark per figure (the paper has no numbered
// tables; the abstract's baseline-comparison claim and the §III sensitivity
// remarks get benchmarks of their own), plus ablation benches for the design
// choices DESIGN.md calls out.
//
// Benchmarks run the experiments at a reduced scale per iteration so
// `go test -bench=. -benchmem` finishes in minutes; pass the figures' cmd/
// binaries -scale 1.0 for the paper-size runs quoted in EXPERIMENTS.md.
package repro

import (
	"io"
	"testing"
	"time"

	"repro/internal/ecocloud"
	"repro/internal/experiments"
	"repro/internal/fluid"
	"repro/internal/obs"
	"repro/internal/trace"
)

// BenchmarkFig2AssignmentFunction regenerates Fig. 2 (fa for p=2,3,5).
func BenchmarkFig2AssignmentFunction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		if len(f.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig3MigrationFunctions regenerates Fig. 3 (f_l, f_h).
func BenchmarkFig3MigrationFunctions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		if len(f.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func benchTraceOptions() experiments.TraceOptions {
	opts := experiments.DefaultTraceOptions()
	opts.NumVMs = 600
	opts.Horizon = 12 * time.Hour
	return opts
}

// BenchmarkFig4TraceAvgDistribution regenerates Fig. 4 (per-VM average
// utilization distribution) on a 600-VM set.
func BenchmarkFig4TraceAvgDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(benchTraceOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5TraceDeviationDistribution regenerates Fig. 5 (deviation
// distribution) on a 600-VM set.
func BenchmarkFig5TraceDeviationDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(benchTraceOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDailyOptions() experiments.DailyOptions {
	opts := experiments.DefaultDailyOptions()
	opts.Servers = 40
	opts.NumVMs = 600
	opts.Horizon = 24 * time.Hour
	return opts
}

// BenchmarkFig6DailyRun regenerates the run behind Figs. 6–11 (per-server
// utilization, active servers, power, migrations, switches, over-demand) at
// one tenth of the paper's scale over one day.
func BenchmarkFig6DailyRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Daily(benchDailyOptions())
		if err != nil {
			b.Fatal(err)
		}
		if res.Run.MeanActiveServers <= 0 {
			b.Fatal("dead run")
		}
	}
}

// BenchmarkDaily is the canonical performance gate for the hot path: the
// same reduced-scale daily run as BenchmarkFig6DailyRun, under the name the
// docs quote (`go test -bench BenchmarkDaily`). Telemetry is off (Obs nil),
// so this measures what the instrumentation costs when disabled.
func BenchmarkDaily(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Daily(benchDailyOptions())
		if err != nil {
			b.Fatal(err)
		}
		if res.Run.MeanActiveServers <= 0 {
			b.Fatal("dead run")
		}
	}
}

// BenchmarkDailyInstrumented is the same run with a live recorder and
// journaling to io.Discard: the price of -progress/-profile telemetry.
func BenchmarkDailyInstrumented(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchDailyOptions()
		opts.Obs = obs.NewRecorder(nil, obs.NewJournal(io.Discard))
		res, err := experiments.Daily(opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Run.MeanActiveServers <= 0 {
			b.Fatal("dead run")
		}
	}
}

// BenchmarkFig7to11Extraction measures materializing the five derived
// figures from a completed daily run (the run itself is Fig6DailyRun).
func BenchmarkFig7to11Extraction(b *testing.B) {
	res, err := experiments.Daily(benchDailyOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range []*experiments.Figure{res.Fig7(), res.Fig8(), res.Fig9(), res.Fig10(), res.Fig11()} {
			if len(f.Rows) == 0 {
				b.Fatal("empty figure")
			}
		}
	}
}

func benchAssignOnlyOptions() experiments.AssignOnlyOptions {
	opts := experiments.DefaultAssignOnlyOptions()
	opts.Servers = 25
	opts.NumVMs = 375
	opts.Churn.ArrivalPerHour = 250
	opts.Horizon = 10 * time.Hour
	return opts
}

// BenchmarkFig12AssignmentOnlySim regenerates Fig. 12: the assignment-only
// simulation from a non-consolidated start.
func BenchmarkFig12AssignmentOnlySim(b *testing.B) {
	opts := benchAssignOnlyOptions()
	churn := opts.Churn
	churn.InitialVMs = opts.NumVMs
	churn.Horizon = opts.Horizon
	for i := 0; i < b.N; i++ {
		ws, err := trace.GenerateChurn(churn, opts.Seed)
		if err != nil {
			b.Fatal(err)
		}
		_ = ws // workload generation is part of the figure's cost
		res, err := experiments.AssignOnly(opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Sim.FinalActiveServers <= 0 {
			b.Fatal("no consolidation state")
		}
	}
}

// BenchmarkFig13FluidModel regenerates Fig. 13: the approximate fluid model
// (Eq. 11) over the same scenario.
func BenchmarkFig13FluidModel(b *testing.B) {
	cfg := fluid.DefaultConfig()
	cfg.Ns = 50
	cfg.Lambda = fluid.ConstRate(400)
	cfg.Mu = fluid.ConstRate(fluid.PerVMRate(0.667, cfg.Nc))
	init := make([]float64, cfg.Ns)
	for i := range init {
		init[i] = 0.10 + 0.20*float64(i)/float64(cfg.Ns-1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fluid.Run(cfg, init, 10*time.Hour, 30*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if res.FinalActive(0.01) == 0 {
			b.Fatal("model collapsed")
		}
	}
}

// BenchmarkFig13FluidModelExact is the ablation against the exact
// combinatorial A_s (Eqs. 6–9): same scenario, full availability polynomial.
func BenchmarkFig13FluidModelExact(b *testing.B) {
	cfg := fluid.DefaultConfig()
	cfg.Ns = 50
	cfg.Exact = true
	cfg.Lambda = fluid.ConstRate(400)
	cfg.Mu = fluid.ConstRate(fluid.PerVMRate(0.667, cfg.Nc))
	init := make([]float64, cfg.Ns)
	for i := range init {
		init[i] = 0.10 + 0.20*float64(i)/float64(cfg.Ns-1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fluid.Run(cfg, init, 10*time.Hour, 30*time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivitySweep regenerates the §III sensitivity study (one
// simulation per sweep point).
func BenchmarkSensitivitySweep(b *testing.B) {
	opts := experiments.DefaultSensitivityOptions()
	opts.Servers = 15
	opts.NumVMs = 225
	opts.Horizon = 6 * time.Hour
	opts.ThValues = []float64{0.85, 0.95}
	opts.TlValues = []float64{0.30, 0.50}
	opts.AlphaBetas = []float64{0.25, 1.0}
	for i := 0; i < b.N; i++ {
		points, err := experiments.Sensitivity(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 6 {
			b.Fatalf("points = %d", len(points))
		}
	}
}

// BenchmarkBaselineComparison regenerates the abstract's comparison:
// ecoCloud vs BFD vs FFD vs all-on over the identical workload.
func BenchmarkBaselineComparison(b *testing.B) {
	opts := experiments.DefaultComparisonOptions()
	opts.Servers = 20
	opts.NumVMs = 300
	opts.Horizon = 8 * time.Hour
	for i := 0; i < b.N; i++ {
		res, err := experiments.Comparison(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Order) != 4 {
			b.Fatal("missing policies")
		}
	}
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

func ablationDaily(b *testing.B, mutate func(*experiments.DailyOptions)) {
	b.Helper()
	opts := benchDailyOptions()
	mutate(&opts)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Daily(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Run.MeanActiveServers, "mean-active")
			b.ReportMetric(res.Run.EnergyKWh, "kWh")
			b.ReportMetric(float64(res.Run.TotalLowMigrations+res.Run.TotalHighMigrations), "migrations")
		}
	}
}

// BenchmarkAblationUniformSelection is the analyzed policy: the manager
// picks uniformly among the servers that declared availability.
func BenchmarkAblationUniformSelection(b *testing.B) {
	ablationDaily(b, func(*experiments.DailyOptions) {})
}

// BenchmarkAblationPickMostLoaded tightens packing by choosing the most
// utilized volunteer instead (deviates from the fluid model's 1/(k+1)).
func BenchmarkAblationPickMostLoaded(b *testing.B) {
	ablationDaily(b, func(o *experiments.DailyOptions) { o.Eco.PickMostLoaded = true })
}

// BenchmarkAblationInviteSubset8 invites a random subset of 8 servers per
// round instead of broadcasting (the paper's footnote 1 on large DCs).
func BenchmarkAblationInviteSubset8(b *testing.B) {
	ablationDaily(b, func(o *experiments.DailyOptions) { o.Eco.InviteSubset = 8 })
}

// BenchmarkAblationNoGrace removes the 30-minute always-accept window (§IV
// argues it is what stops freshly woken servers from flapping).
func BenchmarkAblationNoGrace(b *testing.B) {
	ablationDaily(b, func(o *experiments.DailyOptions) { o.Eco.Grace = time.Nanosecond })
}

// BenchmarkAblationParallelControlRound routes the control round (demand
// prewarm, overload observation) through a 4-worker internal/par pool
// (bit-identical results; this measures the wall-clock effect at bench
// scale).
func BenchmarkAblationParallelControlRound(b *testing.B) {
	ablationDaily(b, func(o *experiments.DailyOptions) { o.Workers = 4 })
}

// BenchmarkInvitationRound isolates one assignment invitation round on a
// loaded 400-server fleet — the operation footnote 1 worries about at scale.
// The fleet is placed at t=0 and invited at t=1h: past every grace period,
// so each active server runs its Bernoulli trial, and inside the 2-h
// workload, so every VM still has demand.
func BenchmarkInvitationRound(b *testing.B) {
	gen := trace.DefaultGenConfig()
	gen.NumVMs = 2000
	gen.Horizon = 2 * time.Hour
	ws, err := trace.Generate(gen, 1)
	if err != nil {
		b.Fatal(err)
	}
	pol, err := ecocloud.New(ecocloud.DefaultConfig(), 2)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-place through the policy so the fleet is realistically loaded.
	d := dcFromWorkload(b, ws, pol)
	env := envAt(d, time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm := ws.VMs[i%len(ws.VMs)]
		// Arrival + immediate departure keeps the fleet state stationary.
		pol.OnArrival(env, probeVM(1_000_000+i, vm.DemandAt(env.Now)))
		if _, err := d.Remove(1_000_000 + i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalabilityProtocol measures the footnote-1 study: one full
// protocol configuration (broadcast, 100 servers, 100 placements) per
// iteration.
func BenchmarkScalabilityProtocol(b *testing.B) {
	opts := experiments.DefaultScalabilityOptions()
	opts.FleetSizes = []int{100}
	opts.Placements = 100
	for i := 0; i < b.N; i++ {
		points, err := experiments.Scalability(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 4 {
			b.Fatalf("points = %d", len(points))
		}
	}
}

// BenchmarkMultiResourceExtension runs the §V end-to-end study (three
// policy variants over the identical RAM-tight workload) per iteration.
func BenchmarkMultiResourceExtension(b *testing.B) {
	opts := experiments.DefaultMultiResourceOptions()
	opts.Servers = 20
	opts.NumVMs = 300
	opts.Horizon = 8 * time.Hour
	for i := 0; i < b.N; i++ {
		res, err := experiments.MultiResource(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Order) != 3 {
			b.Fatal("missing variants")
		}
	}
}

// BenchmarkFluidApproximationError quantifies §IV's "very close" claim:
// Eq. 11 vs Eq. 6-9 over random states plus one trajectory pair.
func BenchmarkFluidApproximationError(b *testing.B) {
	opts := experiments.DefaultFluidErrorOptions()
	opts.Servers = 30
	opts.States = 20
	opts.Horizon = 4 * time.Hour
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FluidError(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolDay runs a compressed day of the complete distributed
// system (arrivals + migrations as wire messages) per iteration.
func BenchmarkProtocolDay(b *testing.B) {
	opts := experiments.DefaultProtocolDayOptions()
	opts.Servers = 20
	opts.NumVMs = 300
	opts.Churn.ArrivalPerHour = 200
	opts.Horizon = 6 * time.Hour
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ProtocolDay(opts); err != nil {
			b.Fatal(err)
		}
	}
}
