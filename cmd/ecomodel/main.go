// Command ecomodel runs the §IV analysis: the assignment procedure in
// isolation, both as a discrete-event simulation (Figure 12) and as the
// fluid differential-equation model fed with the same lambda(t)/mu(t)
// (Figure 13), then compares the consolidation the two predict.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/ascii"
	"repro/internal/cli"
	"repro/internal/experiments"
)

func main() {
	opts := experiments.DefaultAssignOnlyOptions()
	var obsFlags cli.ObsFlags
	cli.BindRunConfig(flag.CommandLine, &opts.RunConfig)
	obsFlags.Bind(flag.CommandLine)
	var (
		arrival = flag.Float64("arrivals", opts.Churn.ArrivalPerHour, "baseline VM arrivals per hour")
		exact   = flag.Bool("exact", false, "use the exact combinatorial A_s (Eq. 6-9) instead of Eq. 11")
		outDir  = flag.String("out", "", "also write fig12/fig13 CSVs (plus run.json and journal.jsonl) to this directory")
	)
	flag.Parse()

	opts.Churn.ArrivalPerHour = *arrival
	opts.Exact = *exact

	if err := run(opts, obsFlags, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "ecomodel:", err)
		os.Exit(1)
	}
}

func run(opts experiments.AssignOnlyOptions, obsFlags cli.ObsFlags, outDir string) error {
	scope, err := obsFlags.Start("assignonly", opts, opts.Seed, outDir, nil)
	if err != nil {
		return err
	}
	defer scope.Close()
	opts.Obs = scope.Rec

	res, err := experiments.AssignOnly(opts)
	if err != nil {
		return err
	}

	// Render active-server trajectories for both worlds on one chart.
	n := len(res.Sim.SampleTimes)
	hoursAxis := make([]float64, n)
	simActive := make([]float64, n)
	for i, t := range res.Sim.SampleTimes {
		hoursAxis[i] = t.Hours()
		for _, u := range res.Sim.ServerUtil[i] {
			if u > 0 {
				simActive[i]++
			}
		}
	}
	modelActive := make([]float64, len(res.Model.Times))
	for i := range res.Model.Times {
		modelActive[i] = float64(res.Model.ActiveAt(i, res.ActiveThreshold))
	}
	if len(modelActive) > n {
		modelActive = modelActive[:n]
	}
	if err := ascii.Chart(os.Stdout, "Figs 12/13 — active servers, simulation vs fluid model",
		hoursAxis, map[string][]float64{"simulation": simActive, "model": modelActive}, 72, 14); err != nil {
		return err
	}

	f12, f13 := res.Fig12(), res.Fig13()
	fmt.Println("\nSummary:")
	for _, f := range []*experiments.Figure{f12, f13} {
		for _, note := range f.Notes {
			fmt.Printf("  [%s] %s\n", f.ID, note)
		}
	}

	if outDir != "" {
		for _, f := range []*experiments.Figure{f12, f13} {
			path, err := f.SaveCSV(outDir)
			if err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	return scope.Close()
}
