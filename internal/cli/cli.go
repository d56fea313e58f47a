// Package cli holds ecobench's flag plumbing for the ecoCloud policy
// parameters and the telemetry flags (-progress, -profile), together with
// the run scope that turns the latter into a recorder, a JSONL journal,
// pprof profiles and a run manifest.
package cli

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/ecocloud"
)

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
