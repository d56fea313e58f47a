package ecocloud

import (
	"fmt"
	"time"
)

// Config collects the ecoCloud parameters. The zero value is invalid; start
// from DefaultConfig, which uses the settings of the paper's §III
// experiments.
type Config struct {
	// Assignment function parameters (Eq. 1–2).
	Ta float64 // maximum allowed utilization for acceptance
	P  float64 // assignment shape parameter

	// Migration function parameters (Eq. 3–4). The paper's sensitivity study
	// requires Th > Ta, otherwise migrations fire before packing can reach
	// the target utilization.
	Tl    float64 // lower utilization threshold
	Th    float64 // upper utilization threshold
	Alpha float64 // low-migration shape
	Beta  float64 // high-migration shape

	// Grace is the interval after activation during which a server accepts
	// every assignment invitation (as long as it stays under Ta). The paper
	// uses 30 minutes (§IV) to stop freshly woken servers from being drained
	// before they gather a critical mass of VMs.
	Grace time.Duration

	// InviteSubset, when positive, sends each invitation to a uniform random
	// subset of that many active servers instead of broadcasting.
	InviteSubset int

	// InviteGroups, when above 1, statically partitions the fleet into that
	// many groups (by server ID modulo InviteGroups) and broadcasts each
	// invitation to a single group, rotating round-robin — the paper's
	// footnote 1: "in very large data centers ... the invitation message may
	// be broadcast to one of such groups only". Combines with InviteSubset
	// (the subset is then sampled within the group).
	InviteGroups int

	// RAM, when non-nil, enables the §V multi-resource extension end to end:
	// servers also track memory, invitations carry the VM's footprint, and
	// availability is decided by the configured strategy over {CPU, RAM}.
	RAM *RAMConfig

	// PickMostLoaded changes how the manager chooses among the servers that
	// declared availability: instead of uniformly at random (the paper's
	// model assumes 1/(k+1)), it picks the most utilized volunteer. This is
	// an ablation knob — it tightens packing at the cost of deviating from
	// the analyzed policy — and is off by default.
	PickMostLoaded bool

	// DisableMigration turns the migration procedure off entirely; the
	// Fig. 12 experiment analyzes the assignment procedure in isolation.
	DisableMigration bool
}

// MultiStrategy selects how the §V extension combines per-resource trials.
type MultiStrategy int

const (
	// AllTrials runs one Bernoulli trial per resource and accepts only when
	// every trial succeeds (§V strategy 1).
	AllTrials MultiStrategy = iota
	// CriticalPlusConstraints runs a single trial on the most critical
	// resource and treats the others as hard thresholds (§V strategy 2).
	CriticalPlusConstraints
)

// RAMConfig parameterizes the memory dimension of the extension.
type RAMConfig struct {
	// Ta is the memory acceptance threshold (like the CPU Ta).
	Ta float64
	// P shapes the memory assignment function fa_ram.
	P float64
	// Strategy picks between the two §V proposals.
	Strategy MultiStrategy
}

// DefaultRAMConfig mirrors the CPU parameters on the memory axis with the
// all-trials strategy.
func DefaultRAMConfig() *RAMConfig {
	return &RAMConfig{Ta: 0.90, P: 3, Strategy: AllTrials}
}

// DefaultConfig returns the paper's §III parameter set: Ta=0.90, p=3,
// Tl=0.50, Th=0.95, alpha=beta=0.25, 30-minute grace.
func DefaultConfig() Config {
	return Config{
		Ta:    0.90,
		P:     3,
		Tl:    0.50,
		Th:    0.95,
		Alpha: 0.25,
		Beta:  0.25,
		Grace: 30 * time.Minute,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Ta <= 0 || c.Ta > 1 {
		return fmt.Errorf("ecocloud: Ta = %v outside (0,1]", c.Ta)
	}
	if c.P <= 0 {
		return fmt.Errorf("ecocloud: p = %v must be positive", c.P)
	}
	if !c.DisableMigration {
		if c.Tl < 0 || c.Tl >= 1 {
			return fmt.Errorf("ecocloud: Tl = %v outside [0,1)", c.Tl)
		}
		if c.Th <= 0 || c.Th >= 1 {
			return fmt.Errorf("ecocloud: Th = %v outside (0,1)", c.Th)
		}
		if c.Tl >= c.Th {
			return fmt.Errorf("ecocloud: Tl = %v must be below Th = %v", c.Tl, c.Th)
		}
		if c.Alpha <= 0 || c.Beta <= 0 {
			return fmt.Errorf("ecocloud: alpha/beta = %v/%v must be positive", c.Alpha, c.Beta)
		}
	}
	if c.Grace < 0 {
		return fmt.Errorf("ecocloud: Grace = %v negative", c.Grace)
	}
	if c.InviteSubset < 0 {
		return fmt.Errorf("ecocloud: InviteSubset = %d negative", c.InviteSubset)
	}
	if c.InviteGroups < 0 {
		return fmt.Errorf("ecocloud: InviteGroups = %d negative", c.InviteGroups)
	}
	if c.RAM != nil {
		if c.RAM.Ta <= 0 || c.RAM.Ta > 1 {
			return fmt.Errorf("ecocloud: RAM Ta = %v outside (0,1]", c.RAM.Ta)
		}
		if c.RAM.P <= 0 {
			return fmt.Errorf("ecocloud: RAM p = %v must be positive", c.RAM.P)
		}
		if c.RAM.Strategy != AllTrials && c.RAM.Strategy != CriticalPlusConstraints {
			return fmt.Errorf("ecocloud: unknown multi-resource strategy %d", c.RAM.Strategy)
		}
	}
	return nil
}
