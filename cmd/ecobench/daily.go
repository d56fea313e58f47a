package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/trace"
)

// dailyFlags are the options only the daily run takes: capturing a
// checkpoint mid-run, resuming from one, and replaying a real CoMon/PlanetLab
// archive in place of the synthetic trace. run.json records them under
// "daily" when any is set.
type dailyFlags struct {
	CheckpointAt   time.Duration `json:"checkpoint_at,omitempty"`
	Checkpoint     string        `json:"checkpoint,omitempty"`
	CheckpointStop bool          `json:"checkpoint_stop,omitempty"`
	Resume         string        `json:"resume,omitempty"`
	PlanetLab      string        `json:"planetlab,omitempty"`
}

func (d *dailyFlags) bind(fs *flag.FlagSet) {
	fs.DurationVar(&d.CheckpointAt, "checkpoint-at", 0, "with -experiments daily: capture a full-sim checkpoint at this virtual time (a multiple of the control interval); requires -checkpoint")
	fs.StringVar(&d.Checkpoint, "checkpoint", "", "file to write the checkpoint captured at -checkpoint-at")
	fs.BoolVar(&d.CheckpointStop, "checkpoint-stop", false, "stop right after the checkpoint is written instead of running to the horizon")
	fs.StringVar(&d.Resume, "resume", "", "with -experiments daily: resume the run from a checkpoint file instead of t=0 (same -seed, -scale and -horizon as the capturing run)")
	fs.StringVar(&d.PlanetLab, "planetlab", "", "with -experiments daily: replay a real CoMon/PlanetLab archive, DIR[,DIR...] with one directory per day and one file per VM, instead of the synthetic trace")
}

// experiment checks the flags against the rest of the command line and
// returns the daily experiment they describe, to run in place of the
// registry's entry on the same request. Every error comes before the run
// starts: a flag without -experiments daily, a missing pairing, and a
// -resume checkpoint captured under other settings, since a resumed run is
// bit-identical only when it rebuilds the capturing run's workload and
// fleet.
func (d dailyFlags) experiment(selected []experiments.Experiment, req experiments.RunRequest) (experiments.Experiment, error) {
	var none experiments.Experiment
	const names = "-checkpoint-at, -checkpoint, -checkpoint-stop, -resume and -planetlab"
	switch {
	case len(selected) != 1 || selected[0].Name != "daily":
		return none, errors.New(names + " need -experiments daily")
	case d.CheckpointAt != 0 && d.Checkpoint == "":
		return none, errors.New("-checkpoint-at requires -checkpoint <file>")
	case d.CheckpointAt == 0 && (d.Checkpoint != "" || d.CheckpointStop):
		return none, errors.New("-checkpoint and -checkpoint-stop require -checkpoint-at")
	}
	opts := experiments.DailyOptionsFor(req)
	prov := map[string]string{
		"experiment": "daily",
		"seed":       fmt.Sprint(opts.Seed),
		"servers":    fmt.Sprint(opts.Servers),
		"vms":        fmt.Sprint(opts.NumVMs),
		"horizon":    opts.Horizon.String(),
	}
	var copts []cluster.Option
	if d.Resume != "" {
		f, err := os.Open(d.Resume)
		if err != nil {
			return none, err
		}
		ck, err := checkpoint.Read(f)
		f.Close()
		if err != nil {
			return none, fmt.Errorf("%s: %w", d.Resume, err)
		}
		for _, k := range []string{"experiment", "seed", "servers", "vms", "horizon"} {
			if got, ok := ck.Meta[k]; ok && got != prov[k] {
				return none, fmt.Errorf("%s: captured with %s=%s, this run has %s", d.Resume, k, got, prov[k])
			}
		}
		copts = append(copts, cluster.WithResume(ck))
	}
	if d.CheckpointAt != 0 {
		copts = append(copts, cluster.WithCheckpointAt(d.CheckpointAt, func(ck *checkpoint.Checkpoint) error {
			ck.Meta = prov
			f, err := os.Create(d.Checkpoint)
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
			fmt.Printf("-- checkpoint at %v written to %s\n", d.CheckpointAt, d.Checkpoint)
			return nil
		}))
		if d.CheckpointStop {
			copts = append(copts, cluster.WithCheckpointStop())
		}
	}
	run := func(req experiments.RunRequest) (*experiments.RunResult, error) {
		opts := experiments.DailyOptionsFor(req)
		opts.Cluster = copts
		res, err := d.day(opts)
		if err != nil {
			return nil, err
		}
		return &experiments.RunResult{Name: "daily", Figures: res.Figures()}, nil
	}
	return experiments.Experiment{Name: "daily", Run: run}, nil
}

// day runs the daily experiment on the synthetic trace or, with -planetlab,
// on the archive: its days chained in the order given, read against the
// synthetic trace's reference capacity, with the horizon capped at the
// archive's length.
func (d dailyFlags) day(opts experiments.DailyOptions) (*experiments.DailyResult, error) {
	if d.PlanetLab == "" {
		return experiments.Daily(opts)
	}
	var days []*trace.Set
	for _, dir := range strings.Split(d.PlanetLab, ",") {
		set, err := trace.ReadPlanetLabDir(os.DirFS(dir), ".", opts.Gen.RefCapacityMHz)
		if err != nil {
			return nil, fmt.Errorf("-planetlab %s: %w", dir, err)
		}
		days = append(days, set)
	}
	ws, err := trace.ConcatDays(days...)
	if err != nil {
		return nil, err
	}
	var end time.Duration // the archive's length: a VM may end with a short file
	for _, vm := range ws.VMs {
		end = max(end, vm.End)
	}
	if end < opts.Horizon {
		opts.Horizon = end
		fmt.Printf("-- horizon capped to the archive length %v\n", end)
	}
	return experiments.DailyOn(opts, ws)
}
