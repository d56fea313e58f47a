// Command ecobench regenerates every table and figure of the paper's
// evaluation by iterating the experiment registry: Figs. 2–3 (probability
// functions), Figs. 4–5 (workload characterization), Figs. 6–11 (two-day
// trace-driven run), Figs. 12–13 (assignment-only simulation vs fluid
// model), the §III sensitivity study, the §V extension, the wire-protocol
// studies, the centralized-baseline comparison, the knee sweep (max
// sustainable churn rate vs fleet size) and the daily run's spread across
// seeds. Each figure is written
// as CSV into -out and summarized on stdout; a run manifest (run.json) and a
// JSONL event journal land in the same directory.
//
// -scale shrinks every experiment proportionally (0.1 = 40 servers / 600
// VMs) for quick runs; -scale 1 is the paper's full size. -experiments runs
// a named subset in registry order. With -experiments daily alone, the
// daily run can also capture a checkpoint mid-run and resume from it
// bit-identically, or replay a real CoMon/PlanetLab archive (daily.go).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/ecocloud"
	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	if err := ecobench(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ecobench:", err)
		os.Exit(1)
	}
}

// ecobench parses the command line args and runs what it asks for: the
// experiment list, one of the two scalability benches, or the experiments.
func ecobench(args []string) error {
	fs := flag.NewFlagSet("ecobench", flag.ExitOnError)
	eco := ecocloud.DefaultConfig()
	rc := experiments.RunConfig{Seed: 1}
	var obsFlags cli.ObsFlags
	var daily dailyFlags
	var (
		outDir   = fs.String("out", "out", "directory for figure CSVs, run.json and journal.jsonl")
		scale    = fs.Float64("scale", 1.0, "experiment scale factor (1.0 = paper size)")
		exact    = fs.Bool("exact", false, "use the exact combinatorial A_s in the fluid model")
		only     = fs.String("experiments", "", "comma-separated experiment names to run (default: all; see -list)")
		list     = fs.Bool("list", false, "list the registered experiments and exit")
		markdown = fs.String("markdown", "", "also assemble all figures into one Markdown report at this path")
		htmlPath = fs.String("html", "", "also assemble all figures into one self-contained HTML report (inline SVG charts)")
		demandB  = fs.Bool("demand-bench", false, "run the demand-kernel scalability benchmark (400->4,000 servers) and write BENCH_demand_kernel.json, then exit")
		parB     = fs.Bool("par-bench", false, "run the parallel-engine scalability benchmark (2,000->100,000 servers / 1M VMs, workers 0->8) and write BENCH_parallel_scale.json, then exit; requires GOMAXPROCS>=2")
		parFloor = fs.String("par-floor", "", "with -par-bench: fail if the pooled speedup at the largest fleet falls below the floor recorded in this JSON file")
	)
	fs.Uint64Var(&rc.Seed, "seed", rc.Seed, "master seed (non-zero)")
	fs.DurationVar(&rc.Horizon, "horizon", rc.Horizon, "horizon override (0: each experiment's own default)")
	fs.IntVar(&rc.Workers, "workers", rc.Workers, "control-round worker count (0 = sequential; any value is bit-identical)")
	cli.BindEco(fs, &eco)
	obsFlags.Bind(fs)
	daily.bind(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkMode(fs); err != nil {
		return err
	}

	switch {
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%-14s %s\n", e.Name, e.Description)
		}
		return nil
	case *demandB:
		return runDemandBench(*outDir, rc.Seed)
	case *parB:
		return runParBench(*outDir, rc.Seed, *parFloor)
	}
	return run(rc, eco, obsFlags, daily, *outDir, *scale, *exact, *only, *markdown, *htmlPath)
}

// modes are the command lines that run no experiment, each with the flags
// it reads beside its own.
var modes = []struct {
	flag  string
	takes []string
}{
	{"list", nil},
	{"demand-bench", []string{"out", "seed"}},
	{"par-bench", []string{"out", "seed", "par-floor"}},
}

// checkMode rejects a command line that sets a flag its mode would ignore:
// two modes at once, a flag the chosen mode does not read, or -par-floor
// without -par-bench.
func checkMode(fs *flag.FlagSet) error {
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	mode := -1
	for i, m := range modes {
		if fs.Lookup(m.flag).Value.String() != "true" {
			continue
		}
		if mode >= 0 {
			return fmt.Errorf("-%s and -%s do not combine", modes[mode].flag, m.flag)
		}
		mode = i
	}
	if mode < 0 {
		if slices.Contains(set, "par-floor") {
			return errors.New("-par-floor needs -par-bench")
		}
		return nil
	}
	m := modes[mode]
	var ignored []string
	for _, name := range set {
		if name != m.flag && !slices.Contains(m.takes, name) {
			ignored = append(ignored, "-"+name)
		}
	}
	if len(ignored) > 0 {
		return fmt.Errorf("-%s does not take %s", m.flag, strings.Join(ignored, ", "))
	}
	return nil
}

func run(rc experiments.RunConfig, eco ecocloud.Config, obsFlags cli.ObsFlags, daily dailyFlags,
	outDir string, scale float64, exact bool, only, markdown, htmlPath string) (err error) {
	if scale <= 0 || scale > 1 {
		return fmt.Errorf("scale %v outside (0,1]", scale)
	}
	if rc.Seed == 0 {
		// The registry reads every zero field as "keep the experiment's
		// default", so a zero seed would run seed 1 and record seed 0.
		return fmt.Errorf("-seed 0 is not supported: a zero seed means \"use each experiment's default seed (1)\"; pass a non-zero seed")
	}
	if err := cli.Validate(eco); err != nil {
		return err
	}
	selected, err := selectExperiments(only)
	if err != nil {
		return err
	}
	req := experiments.RunRequest{Config: rc, Eco: &eco, Scale: scale, Exact: exact}
	config := map[string]any{"run_config": rc, "eco": eco, "scale": scale, "exact": exact}
	if daily != (dailyFlags{}) {
		e, err := daily.experiment(selected, req)
		if err != nil {
			return err
		}
		selected = []experiments.Experiment{e}
		config["daily"] = daily
	}
	scope, err := obsFlags.Start("ecobench", config, rc.Seed, outDir)
	if err != nil {
		return err
	}
	defer func() { err = scope.Close(err) }()
	req.Config.Obs = scope.Rec

	var figures []*experiments.Figure
	save := func(f *experiments.Figure) error {
		figures = append(figures, f)
		path, err := f.SaveCSV(outDir)
		if err != nil {
			return err
		}
		fmt.Printf("== %s: %s -> %s\n", f.ID, f.Title, path)
		for _, n := range f.Notes {
			fmt.Printf("   %s\n", n)
		}
		return nil
	}

	for _, e := range selected {
		start := time.Now()
		res, err := e.Run(req)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if took := time.Since(start).Round(time.Millisecond); took > time.Second {
			fmt.Printf("-- %s took %v\n", e.Name, took)
		}
		for _, f := range res.Figures {
			if err := save(f); err != nil {
				return err
			}
		}
	}

	if markdown != "" {
		file, err := os.Create(markdown)
		if err != nil {
			return err
		}
		fmt.Fprintf(file, "# ecoCloud reproduction report (scale %g, seed %d)\n\n", scale, rc.Seed)
		for _, f := range figures {
			if err := f.WriteMarkdown(file); err != nil {
				file.Close()
				return err
			}
		}
		if err := file.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", markdown)
	}
	if htmlPath != "" {
		file, err := os.Create(htmlPath)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("ecoCloud reproduction report (scale %g, seed %d)", scale, rc.Seed)
		if err := report.HTML(file, title, figures); err != nil {
			file.Close()
			return err
		}
		if err := file.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", htmlPath)
	}
	return nil
}

// selectExperiments resolves the -experiments filter against the registry,
// preserving registry (paper) order.
func selectExperiments(only string) ([]experiments.Experiment, error) {
	all := experiments.All()
	if only == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := experiments.Lookup(name); !ok {
			return nil, fmt.Errorf("unknown experiment %q (have %v)", name, experiments.Names())
		}
		want[name] = true
	}
	var out []experiments.Experiment
	for _, e := range all {
		if want[e.Name] {
			out = append(out, e)
		}
	}
	return out, nil
}
