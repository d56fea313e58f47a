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
