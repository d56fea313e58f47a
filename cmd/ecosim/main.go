// Command ecosim runs the trace-driven two-day experiment (§III) — the run
// behind Figures 6–11 — and renders the results as ASCII charts, optionally
// writing the figure CSVs, a run manifest and a JSONL event journal.
//
// The defaults are the paper's: 400 servers (thirds of 4/6/8 cores at
// 2 GHz), 6,000 VMs, 48 hours, Ta=0.90 p=3 Tl=0.50 Th=0.95 alpha=beta=0.25.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/ascii"
	"repro/internal/checkpoint"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func main() {
	opts := experiments.DefaultDailyOptions()
	var obsFlags cli.ObsFlags
	cli.BindRunConfig(flag.CommandLine, &opts.RunConfig)
	cli.BindEco(flag.CommandLine, &opts.Eco)
	obsFlags.Bind(flag.CommandLine)
	var (
		outDir   = flag.String("out", "", "also write figure CSVs (plus run.json and journal.jsonl) to this directory")
		plDir    = flag.String("planetlab", "", "load a real CoMon/PlanetLab archive directory (one file per VM) instead of synthesizing")
		plRef    = flag.Float64("planetlab-ref-mhz", 2400, "host capacity the PlanetLab percentages refer to")
		ckAt     = flag.Duration("checkpoint-at", 0, "capture a full-sim checkpoint at this virtual time (a multiple of the control interval); requires -checkpoint")
		ckPath   = flag.String("checkpoint", "", "file to write the checkpoint captured at -checkpoint-at")
		ckStop   = flag.Bool("checkpoint-stop", false, "stop right after the checkpoint is written instead of running to the horizon")
		resumeCk = flag.String("resume", "", "resume the run from a checkpoint file instead of t=0 (same seed/fleet/vms flags as the capturing run)")
	)
	flag.Parse()

	err := bindCheckpointFlags(&opts, *ckAt, *ckPath, *ckStop, *resumeCk)
	if err == nil {
		err = run(opts, obsFlags, *outDir, *plDir, *plRef)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecosim:", err)
		os.Exit(1)
	}
}

// bindCheckpointFlags translates the -checkpoint* / -resume flags into
// cluster options on the daily run. The written checkpoint carries the
// capturing run's seed/fleet/vms/horizon in its Meta section; -resume
// cross-checks those against the current flags before doing any work, since
// a resumed run is only bit-identical when it rebuilds the same workload
// and fleet.
func bindCheckpointFlags(opts *experiments.DailyOptions, at time.Duration, path string, stop bool, resumePath string) error {
	prov := func() map[string]string {
		return map[string]string{
			"experiment": "daily",
			"seed":       fmt.Sprint(opts.Seed),
			"servers":    fmt.Sprint(opts.Servers),
			"vms":        fmt.Sprint(opts.NumVMs),
			"horizon":    opts.Horizon.String(),
		}
	}
	if resumePath != "" {
		f, err := os.Open(resumePath)
		if err != nil {
			return err
		}
		ck, err := checkpoint.Read(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", resumePath, err)
		}
		for k, want := range prov() {
			if got, ok := ck.Meta[k]; ok && got != want {
				return fmt.Errorf("%s: captured with %s=%s, current flags say %s", resumePath, k, got, want)
			}
		}
		opts.Cluster = append(opts.Cluster, cluster.WithResume(ck))
	}
	if at != 0 {
		if path == "" {
			return fmt.Errorf("-checkpoint-at requires -checkpoint <file>")
		}
		opts.Cluster = append(opts.Cluster, cluster.WithCheckpointAt(at, func(ck *checkpoint.Checkpoint) error {
			ck.Meta = prov()
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := checkpoint.Write(f, ck); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("ecosim: checkpoint at %v written to %s\n", at, path)
			return nil
		}))
		if stop {
			opts.Cluster = append(opts.Cluster, cluster.WithCheckpointStop())
		}
	} else if stop {
		return fmt.Errorf("-checkpoint-stop requires -checkpoint-at")
	}
	return nil
}

func run(opts experiments.DailyOptions, obsFlags cli.ObsFlags, outDir, plDir string, plRef float64) (err error) {
	if err := cli.Validate(opts.Eco); err != nil {
		return err
	}
	scope, err := obsFlags.Start("daily", opts, opts.Seed, outDir)
	if err != nil {
		return err
	}
	defer func() { err = scope.Close(err) }()
	opts.Obs = scope.Rec

	start := time.Now()
	var res *experiments.DailyResult
	if plDir != "" {
		res, err = runPlanetLab(opts, plDir, plRef)
	} else {
		res, err = experiments.Daily(opts)
	}
	if err != nil {
		return err
	}
	fmt.Printf("ecosim: %d servers, %v simulated in %v\n\n",
		res.Servers, res.Run.Horizon, time.Since(start).Round(time.Millisecond))

	hours := func(s *metrics.Series) []float64 {
		out := make([]float64, s.Len())
		for i, t := range s.T {
			out[i] = t.Hours()
		}
		return out
	}
	r := res.Run
	w := os.Stdout
	if err := ascii.Chart(w, "Fig 7 — active servers", hours(r.ActiveServers),
		map[string][]float64{"active": r.ActiveServers.V}, 72, 12); err != nil {
		return err
	}
	if err := ascii.Chart(w, "\nFig 8 — power (W)", hours(r.PowerW),
		map[string][]float64{"power_w": r.PowerW.V}, 72, 12); err != nil {
		return err
	}
	if err := ascii.Chart(w, "\nFig 9 — migrations per hour", hours(r.LowMigrations),
		map[string][]float64{"low": r.LowMigrations.V, "high": r.HighMigrations.V}, 72, 12); err != nil {
		return err
	}
	if err := ascii.Chart(w, "\nFig 10 — server switches per hour", hours(r.Activations),
		map[string][]float64{"activations": r.Activations.V, "hibernations": r.Hibernations.V}, 72, 12); err != nil {
		return err
	}
	if err := ascii.Chart(w, "\nFig 11 — % time of CPU over-demand", hours(r.OverDemandPct),
		map[string][]float64{"overdemand_pct": r.OverDemandPct.V}, 72, 10); err != nil {
		return err
	}
	if err := ascii.Chart(w, "\nFig 6 (reference) — overall load", hours(r.OverallLoad),
		map[string][]float64{"overall_load": r.OverallLoad.V}, 72, 10); err != nil {
		return err
	}

	fmt.Println("\nSummary:")
	for _, f := range res.Figures() {
		for _, n := range f.Notes {
			fmt.Printf("  [%s] %s\n", f.ID, n)
		}
	}

	if outDir != "" {
		for _, f := range res.Figures() {
			path, err := f.SaveCSV(outDir)
			if err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	return nil
}

// runPlanetLab runs the daily scenario on a real CoMon/PlanetLab archive
// instead of the synthetic substitute. The horizon is capped to the archive
// length.
func runPlanetLab(opts experiments.DailyOptions, dir string, refMHz float64) (*experiments.DailyResult, error) {
	ws, err := trace.ReadPlanetLabDir(os.DirFS(dir), ".", refMHz)
	if err != nil {
		return nil, err
	}
	horizon := opts.Horizon
	if len(ws.VMs) > 0 && ws.VMs[0].End < horizon {
		horizon = ws.VMs[0].End
		fmt.Printf("ecosim: horizon capped to the archive length %v\n", horizon)
	}
	pol, err := ecocloud.New(opts.Eco, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	ccfg := opts.ClusterConfig(dc.StandardFleet(opts.Servers), ws, opts.Control, opts.Sample, opts.Power)
	ccfg.Horizon = horizon
	ccfg.RecordServerUtil = true
	copts := append([]cluster.Option{cluster.WithObs(opts.Obs)}, opts.Cluster...)
	run, err := cluster.Run(ccfg, pol, copts...)
	if err != nil {
		return nil, err
	}
	return &experiments.DailyResult{Run: run, Workload: ws, Servers: opts.Servers, TaForBound: opts.Eco.Ta}, nil
}
