package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestFigureAddAndColumn(t *testing.T) {
	f := &Figure{ID: "t", Columns: []string{"a", "b"}}
	f.Add(1, 2)
	f.Add(3, 4)
	if got := f.Column("b"); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("Column(b) = %v", got)
	}
}

func TestFigureAddPanicsOnArity(t *testing.T) {
	f := &Figure{ID: "t", Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity accepted")
		}
	}()
	f.Add(1)
}

func TestFigureColumnPanicsOnUnknown(t *testing.T) {
	f := &Figure{ID: "t", Columns: []string{"a"}}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown column accepted")
		}
	}()
	f.Column("zzz")
}

func TestFigureWriteCSV(t *testing.T) {
	f := &Figure{ID: "fig0", Title: "demo", Columns: []string{"x", "y"}}
	f.Add(1, 2.5)
	f.Notef("n=%d", 1)
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# fig0: demo", "# note: n=1", "x,y", "1,2.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	f, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 101 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	// Values at the documented peaks are ~1; above Ta all zero.
	for _, col := range []string{"p=2", "p=3", "p=5"} {
		vals := f.Column(col)
		max := 0.0
		for _, v := range vals {
			if v > max {
				max = v
			}
		}
		if max < 0.999 || max > 1.0001 {
			t.Fatalf("%s peak = %v, want ~1", col, max)
		}
		if vals[95] != 0 || vals[100] != 0 {
			t.Fatalf("%s nonzero above Ta", col)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	f, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	fl := f.Column("fl_alpha=1")
	fh := f.Column("fh_beta=1")
	if fl[0] != 1 {
		t.Fatalf("f_l(0) = %v", fl[0])
	}
	if fl[30] != 0 || fl[50] != 0 {
		t.Fatal("f_l nonzero at/above Tl")
	}
	if fh[80] != 0 {
		t.Fatalf("f_h(Th) = %v", fh[80])
	}
	if fh[100] != 1 {
		t.Fatalf("f_h(1) = %v", fh[100])
	}
}

func smallTraceOptions() TraceOptions {
	opts := DefaultTraceOptions()
	opts.NumVMs = 400
	opts.Horizon = 6 * time.Hour
	return opts
}

func TestFig4(t *testing.T) {
	f, err := Fig4(smallTraceOptions())
	if err != nil {
		t.Fatal(err)
	}
	freqs := f.Column("freq")
	sum := 0.0
	for _, v := range freqs {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("frequencies sum to %v", sum)
	}
	// Mode in the lowest bins, per Fig. 4.
	if freqs[0] < freqs[len(freqs)/2] {
		t.Fatal("distribution not concentrated at low utilization")
	}
}

func TestFig5(t *testing.T) {
	f, err := Fig5(smallTraceOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Peak near zero deviation.
	devs := f.Column("deviation_pct")
	freqs := f.Column("freq")
	maxI := 0
	for i := range freqs {
		if freqs[i] > freqs[maxI] {
			maxI = i
		}
	}
	if devs[maxI] < -5 || devs[maxI] > 5 {
		t.Fatalf("mode at deviation %v, want near 0", devs[maxI])
	}
}

func smallDailyOptions() DailyOptions {
	opts := DefaultDailyOptions()
	opts.Servers = 30
	opts.NumVMs = 450
	opts.Horizon = 12 * time.Hour
	return opts
}

func TestDailySmallScale(t *testing.T) {
	res, err := Daily(smallDailyOptions())
	if err != nil {
		t.Fatal(err)
	}
	figs := res.Figures()
	if len(figs) != 6 {
		t.Fatalf("figures = %d, want 6", len(figs))
	}
	ids := map[string]bool{}
	for _, f := range figs {
		ids[f.ID] = true
		if len(f.Rows) == 0 {
			t.Fatalf("%s has no rows", f.ID)
		}
	}
	for _, id := range []string{"fig6", "fig7", "fig8", "fig9", "fig10", "fig11"} {
		if !ids[id] {
			t.Fatalf("missing %s", id)
		}
	}
	// Consolidation sanity: number of active servers roughly tracks load.
	lo, hi := slices.Min(res.Run.ActiveServers.V), slices.Max(res.Run.ActiveServers.V)
	if hi > float64(30) || lo < 1 {
		t.Fatalf("active servers out of range: [%v, %v]", lo, hi)
	}
	// QoS: overload stays small even at reduced scale.
	if res.Run.VMOverloadTimeFrac > 0.01 {
		t.Fatalf("overload fraction = %v", res.Run.VMOverloadTimeFrac)
	}
	// Activations concentrate in rising phases, hibernations in falling
	// ones; at minimum both occur across a daily cycle.
	if res.Run.TotalActivations == 0 || res.Run.TotalHibernations == 0 {
		t.Fatalf("switches = %d/%d, want both nonzero",
			res.Run.TotalActivations, res.Run.TotalHibernations)
	}
}

func TestAssignOnlySmallScale(t *testing.T) {
	opts := DefaultAssignOnlyOptions()
	opts.Servers = 25
	opts.NumVMs = 375
	opts.Churn.ArrivalPerHour = 250 // lambda/mu = 375: stationary population
	opts.Horizon = 10 * time.Hour
	res, err := AssignOnly(opts)
	if err != nil {
		t.Fatal(err)
	}
	f12, f13 := res.Fig12(), res.Fig13()
	if len(f12.Rows) == 0 || len(f13.Rows) == 0 {
		t.Fatal("empty figures")
	}
	if len(f12.Columns) != 2+opts.Servers || len(f13.Columns) != 2+opts.Servers {
		t.Fatalf("column counts %d/%d", len(f12.Columns), len(f13.Columns))
	}
	// Both worlds start non-consolidated (everyone active) and consolidate.
	simFinal := res.Sim.FinalActiveServers
	modelFinal := res.Model.FinalActive(res.ActiveThreshold)
	if simFinal >= opts.Servers {
		t.Fatalf("simulation did not consolidate: %d/%d", simFinal, opts.Servers)
	}
	if modelFinal >= opts.Servers {
		t.Fatalf("model did not consolidate: %d/%d", modelFinal, opts.Servers)
	}
	// The paper's headline: the two agree within a few servers (45 vs 43).
	diff := simFinal - modelFinal
	if diff < 0 {
		diff = -diff
	}
	if diff > opts.Servers/4 {
		t.Fatalf("simulation (%d) and model (%d) disagree badly", simFinal, modelFinal)
	}
	// No migrations may occur in the assignment-only experiment.
	if res.Sim.TotalLowMigrations+res.Sim.TotalHighMigrations != 0 {
		t.Fatal("migrations occurred with migration disabled")
	}
}

// TestAssignOnlyNotesQuotePaperAtItsSize checks that Figs. 12-13 quote the
// paper's active-server counts (45 and 43, at 100 servers) only at 100
// servers, and that their titles name the fleet that was run.
func TestAssignOnlyNotesQuotePaperAtItsSize(t *testing.T) {
	opts := DefaultAssignOnlyOptions()
	opts.Servers = 200
	opts.NumVMs = 600
	opts.Churn.ArrivalPerHour = 300
	opts.Horizon = 2 * time.Hour
	res, err := AssignOnly(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Figure{res.Fig12(), res.Fig13()} {
		if !strings.Contains(f.Title, "of 200 servers") {
			t.Errorf("%s title %q does not name the 200-server fleet", f.ID, f.Title)
		}
		if len(f.Notes) == 0 {
			t.Errorf("%s has no notes", f.ID)
		}
		for _, note := range f.Notes {
			if strings.Contains(note, "paper:") {
				t.Errorf("%s at 200 servers quotes the paper's 100-server count: %q", f.ID, note)
			}
		}
	}
}

func TestComparisonSmallScale(t *testing.T) {
	opts := DefaultComparisonOptions()
	opts.Servers = 20
	opts.NumVMs = 300
	opts.Horizon = 8 * time.Hour
	res, err := Comparison(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 4 {
		t.Fatalf("policies = %v", res.Order)
	}
	eco := res.Results["ecocloud"]
	bfd := res.Results["bfd"]
	allon := res.Results["allon"]
	if eco == nil || bfd == nil || allon == nil {
		t.Fatal("missing policy results")
	}
	// Headline shape: both consolidators far below the all-on floor...
	if eco.EnergyKWh >= allon.EnergyKWh*0.8 {
		t.Fatalf("ecoCloud %.1f kWh not well below all-on %.1f kWh", eco.EnergyKWh, allon.EnergyKWh)
	}
	if bfd.EnergyKWh >= allon.EnergyKWh*0.8 {
		t.Fatalf("BFD %.1f kWh not well below all-on %.1f kWh", bfd.EnergyKWh, allon.EnergyKWh)
	}
	// ...and comparable to each other (paper: "very close").
	ratio := eco.EnergyKWh / bfd.EnergyKWh
	if ratio < 0.8 || ratio > 1.3 {
		t.Fatalf("ecoCloud/BFD energy ratio = %.3f, want ~1", ratio)
	}
	fig := res.Figure()
	if len(fig.Rows) != 4 {
		t.Fatalf("figure rows = %d", len(fig.Rows))
	}
}

func TestSensitivitySmallScale(t *testing.T) {
	opts := DefaultSensitivityOptions()
	opts.Servers = 15
	opts.NumVMs = 225
	opts.Horizon = 6 * time.Hour
	opts.ThValues = []float64{0.85, 0.95}
	opts.TlValues = []float64{0.30, 0.50}
	opts.AlphaBetas = []float64{0.25, 1.0}
	points, err := Sensitivity(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d, want 6", len(points))
	}
	fig := SensitivityFigure(points)
	if len(fig.Rows) != 6 {
		t.Fatalf("figure rows = %d", len(fig.Rows))
	}
	// Every sweep point must be a live run: consolidation happened (some
	// migrations) and QoS held. Total migration counts are NOT monotone in
	// alpha/beta — eager draining hibernates under-utilized servers sooner,
	// which can reduce later opportunities — so only per-trial probabilities
	// (tested in the functions package) are ordered.
	for _, p := range points {
		if p.Migrations == 0 {
			t.Fatalf("%s=%.2f: no migrations at all", p.Param, p.Value)
		}
		if p.OverloadPct > 1 {
			t.Fatalf("%s=%.2f: overload %.3f%%", p.Param, p.Value, p.OverloadPct)
		}
	}
}

func TestScalabilitySmallScale(t *testing.T) {
	opts := DefaultScalabilityOptions()
	opts.FleetSizes = []int{20, 60}
	opts.Placements = 40
	opts.Groups = 4
	opts.Subset = 5 // must bind even on the 20-server fleet
	points, err := Scalability(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 { // 2 fleets x 4 variants
		t.Fatalf("points = %d, want 8", len(points))
	}
	byKey := map[string]ScalabilityPoint{}
	for _, p := range points {
		byKey[p.Variant+"/"+string(rune('0'+p.Servers/20))] = p
		if p.MsgsPerPlacement <= 0 || p.MeanLatency <= 0 {
			t.Fatalf("%s@%d: degenerate point %+v", p.Variant, p.Servers, p)
		}
	}
	// Broadcast reply-all cost grows with the fleet; groups/subset stay flat.
	b20 := byKey["broadcast/1"]
	b60 := byKey["broadcast/3"]
	if b60.MsgsPerPlacement <= b20.MsgsPerPlacement {
		t.Fatalf("broadcast msgs/placement did not grow with the fleet: %v vs %v",
			b20.MsgsPerPlacement, b60.MsgsPerPlacement)
	}
	s20 := byKey["subset/1"]
	s60 := byKey["subset/3"]
	if s60.MsgsPerPlacement > s20.MsgsPerPlacement*1.5 {
		t.Fatalf("subset msgs/placement grew with the fleet: %v vs %v",
			s20.MsgsPerPlacement, s60.MsgsPerPlacement)
	}
	// Silent reject must beat reply-all broadcast on messages.
	sr60 := byKey["silent-reject/3"]
	if sr60.MsgsPerPlacement >= b60.MsgsPerPlacement {
		t.Fatalf("silent reject (%v) not below reply-all broadcast (%v)",
			sr60.MsgsPerPlacement, b60.MsgsPerPlacement)
	}
	fig := ScalabilityFigure(points)
	if len(fig.Rows) != 8 {
		t.Fatalf("figure rows = %d", len(fig.Rows))
	}
}

func TestReplicateDaily(t *testing.T) {
	opts := smallDailyOptions()
	opts.Horizon = 6 * time.Hour
	reps, err := ReplicateDaily(opts, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 7 {
		t.Fatalf("metrics = %d, want 7", len(reps))
	}
	for _, r := range reps {
		if r.N != 3 {
			t.Fatalf("%s: n = %d", r.Metric, r.N)
		}
		if r.Min > r.Mean || r.Mean > r.Max {
			t.Fatalf("%s: min/mean/max out of order: %+v", r.Metric, r)
		}
		if r.Std < 0 {
			t.Fatalf("%s: negative std", r.Metric)
		}
	}
	// Different seeds must actually vary at least one stochastic metric.
	varied := false
	for _, r := range reps {
		if r.Std > 0 {
			varied = true
		}
	}
	if !varied {
		t.Fatal("three independent seeds produced identical runs")
	}
	fig := ReplicationFigure(reps)
	if len(fig.Rows) != 7 {
		t.Fatalf("figure rows = %d", len(fig.Rows))
	}
	if _, err := ReplicateDaily(opts, nil); err == nil {
		t.Fatal("empty seed list accepted")
	}
}

func TestFigureWriteMarkdown(t *testing.T) {
	f := &Figure{ID: "figx", Title: "demo", Columns: []string{"a", "b"}}
	f.Add(1, 2)
	f.Notef("a note")
	var buf bytes.Buffer
	if err := f.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"## figx — demo", "- a note", "a | b", "1 | 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
	// Wide figures summarize instead of dumping 400 columns.
	wide := &Figure{ID: "figw", Title: "wide", Columns: make([]string, 50)}
	for i := range wide.Columns {
		wide.Columns[i] = "c"
	}
	buf.Reset()
	if err := wide.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "50 columns") {
		t.Fatalf("wide figure not summarized:\n%s", buf.String())
	}
}

func TestMultiResourceSmallScale(t *testing.T) {
	opts := DefaultMultiResourceOptions()
	opts.Servers = 20
	opts.NumVMs = 300
	opts.Horizon = 8 * time.Hour
	res, err := MultiResource(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 3 {
		t.Fatalf("variants = %v", res.Order)
	}
	cpuOnly := res.Results["cpu-only"]
	allTrials := res.Results["all-trials"]
	critical := res.Results["critical"]
	if cpuOnly == nil || allTrials == nil || critical == nil {
		t.Fatal("missing variants")
	}
	// The payoff claim of §V: on a RAM-tight mix the CPU-only policy
	// overcommits memory; both multi-resource strategies must do strictly
	// better (the thresholds make overcommit nearly impossible).
	if cpuOnly.RAMOverloadTimeFrac == 0 {
		t.Skip("workload not RAM-tight at this scale; nothing to compare")
	}
	if allTrials.RAMOverloadTimeFrac >= cpuOnly.RAMOverloadTimeFrac {
		t.Fatalf("all-trials RAM overcommit %v not below cpu-only %v",
			allTrials.RAMOverloadTimeFrac, cpuOnly.RAMOverloadTimeFrac)
	}
	if critical.RAMOverloadTimeFrac >= cpuOnly.RAMOverloadTimeFrac {
		t.Fatalf("critical RAM overcommit %v not below cpu-only %v",
			critical.RAMOverloadTimeFrac, cpuOnly.RAMOverloadTimeFrac)
	}
	fig := res.Figure()
	if len(fig.Rows) != 3 {
		t.Fatalf("figure rows = %d", len(fig.Rows))
	}
}

func TestFluidErrorSmallScale(t *testing.T) {
	opts := DefaultFluidErrorOptions()
	opts.Servers = 20
	opts.States = 25
	opts.Horizon = 6 * time.Hour
	fig, err := FluidError(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) == 0 {
		t.Fatal("no states compared")
	}
	// The claim under test: the approximation stays close. The error is
	// measured in units of one server's average arrival share; require the
	// mean misattribution to stay under one share (the paper only says
	// "very close", and the trajectory-level agreement is the headline).
	for _, row := range fig.Rows {
		if row[1] > 1.0 {
			t.Fatalf("mean arrival misattribution %v shares at state %v", row[1], row[0])
		}
	}
	if len(fig.Notes) < 2 {
		t.Fatal("missing summary notes")
	}
}

func TestProtocolDaySmallScale(t *testing.T) {
	opts := DefaultProtocolDayOptions()
	opts.Servers = 20
	opts.NumVMs = 300
	opts.Churn.ArrivalPerHour = 200
	opts.Horizon = 6 * time.Hour
	fig, err := ProtocolDay(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 1 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	row := fig.Rows[0]
	placements := row[0]
	if placements < 300 {
		t.Fatalf("placements = %v", placements)
	}
	messages := fig.Column("messages")[0]
	if messages <= placements {
		t.Fatalf("messages = %v, must exceed placements", messages)
	}
	if fig.Column("final_active")[0] <= 0 {
		t.Fatal("no servers active at end of day")
	}
	// Migrations happen on a churning day (low ones at minimum).
	if fig.Column("migrations_low")[0]+fig.Column("migrations_high")[0] == 0 {
		t.Fatal("no migrations completed over the day")
	}
}
