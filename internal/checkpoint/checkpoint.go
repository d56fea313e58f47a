// Package checkpoint turns a running simulation into a serializable value
// and back. A Checkpoint captures everything a resumed run needs to be
// BIT-IDENTICAL to the uninterrupted one: the data center's extended
// snapshot (placements, power states, SoA hot arrays, demand-kernel
// aggregates and counters; no per-VM state), the policy's own state (for
// ecoCloud, every live rng stream with all four xoshiro words and the
// Marsaglia spare cache, and its invitation-group cursor), the cluster
// driver's accounting (series, accumulators, episode and migration
// trackers), and the obs counter/gauge values. It also records a digest of
// the run's inputs, so a resume on other inputs fails before anything is
// restored.
//
// The capture point is the end of the control tick at time T: for T > 0 the
// control tick is provably the last event at its timestamp under the
// engine's FIFO-within-timestamp ordering, so "state at end of control@T"
// is a well-defined cut of the whole simulation. cluster.Run enforces that
// by accepting only positive multiples of ControlInterval as the capture
// time of cluster.WithCheckpointAt.
package checkpoint

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/dc"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Version is the current checkpoint wire-format version. Version 2 moved
// the rng streams into the policy's own state and added Inputs; Read
// refuses every other version.
const Version = 2

// Checkpoint is the full serializable state of a simulation at one instant.
type Checkpoint struct {
	Version int `json:"version"`
	// AtNS is the virtual capture time (the end of the control tick at that
	// timestamp).
	AtNS int64 `json:"at_ns"`
	// Policy names the policy the state belongs to; resume refuses a
	// mismatched policy rather than adopting foreign state.
	Policy string `json:"policy,omitempty"`

	// Inputs is the hex SHA-256 of the inputs of the run the checkpoint
	// was captured from; cluster.Run states what it covers and refuses to
	// resume a run whose inputs hash otherwise.
	Inputs string `json:"inputs"`

	// DC is the data center's extended snapshot (see dc.Snapshot).
	DC dc.Snapshot `json:"dc"`
	// PolicyState is the policy's opaque state (see Checkpointable).
	PolicyState json.RawMessage `json:"policy_state,omitempty"`
	// Runner is the cluster driver's accounting (see RunnerState).
	Runner *RunnerState `json:"runner,omitempty"`
	// Obs carries the counter/gauge values of the run's telemetry registry.
	// Timers are excluded: they measure host wall time, not simulation state.
	Obs *obs.Snapshot `json:"obs,omitempty"`

	// Meta is informational provenance (seed, fleet size, experiment name)
	// written by the assembling layer, so that a resume under other
	// settings can name the one that differs. The simulation state never
	// reads it; Inputs is what guards a resume.
	Meta map[string]string `json:"meta,omitempty"`
}

// Accum is cluster.Run's in-flight accounting: VM ticks and the overloaded
// ones among them, over the whole run and over the current sample window;
// demand and capacity summed over overloaded ticks; active servers summed
// over control ticks; and the switch counts at the last sample. The driver
// keeps its sums in one Accum, so a checkpoint carries them as one value.
type Accum struct {
	VMTicks          float64 `json:"vm_ticks,omitempty"`
	VMOverTicks      float64 `json:"vm_over_ticks,omitempty"`
	VMRAMOverTicks   float64 `json:"vm_ram_over_ticks,omitempty"`
	WinVMTicks       float64 `json:"win_vm_ticks,omitempty"`
	WinVMOverTicks   float64 `json:"win_vm_over_ticks,omitempty"`
	OverDemandMHz    float64 `json:"over_demand_mhz,omitempty"`
	OverCapacityMHz  float64 `json:"over_capacity_mhz,omitempty"`
	ActiveTickSum    float64 `json:"active_tick_sum,omitempty"`
	ControlTicks     float64 `json:"control_ticks,omitempty"`
	LastActivations  int     `json:"last_activations,omitempty"`
	LastHibernations int     `json:"last_hibernations,omitempty"`
}

// RunnerState is cluster.Run's accounting at the capture instant: the
// accumulators, the energy sum, the sampled series, the episode tracker and
// the policy-event recorder. cluster fills and consumes it.
type RunnerState struct {
	Accum
	EnergyKWh float64 `json:"energy_kwh,omitempty"`

	ActiveServers *metrics.Series `json:"active_servers,omitempty"`
	PowerW        *metrics.Series `json:"power_w,omitempty"`
	OverallLoad   *metrics.Series `json:"overall_load,omitempty"`
	OverDemandPct *metrics.Series `json:"overdemand_pct,omitempty"`
	Activations   *metrics.Series `json:"activations,omitempty"`
	Hibernations  *metrics.Series `json:"hibernations,omitempty"`

	SampleTimesNS []int64     `json:"sample_times_ns,omitempty"`
	ServerUtil    [][]float64 `json:"server_util,omitempty"`

	Episodes    metrics.EpisodeTrackerState         `json:"episodes"`
	Migrations  map[string]metrics.RateCounterState `json:"migrations,omitempty"`
	Rounds      []RoundCount                        `json:"rounds,omitempty"`
	Saturations int                                 `json:"saturations,omitempty"`
}

// RoundCount is one (virtual timestamp, migration count) pair of the
// recorder's concurrent-migration bookkeeping.
type RoundCount struct {
	TNS int64 `json:"t_ns"`
	N   int   `json:"n"`
}

// Checkpointable is implemented by cluster.Run policies that can be
// checkpointed. The policy owns its state's encoding, rng streams included
// (for ecoCloud, the streams and the invitation group cursor).
type Checkpointable interface {
	// MarshalCheckpoint returns the policy's state as a self-contained JSON
	// value.
	MarshalCheckpoint() (json.RawMessage, error)
	// UnmarshalCheckpoint reinstates it on a freshly constructed instance
	// with the same configuration, failing on state it did not write.
	UnmarshalCheckpoint(json.RawMessage) error
}

// New returns an empty checkpoint at the given virtual time.
func New(atNS int64) *Checkpoint {
	return &Checkpoint{Version: Version, AtNS: atNS}
}

// Validate reports whether the checkpoint is structurally usable.
func (c *Checkpoint) Validate() error {
	if c.Version != Version {
		return fmt.Errorf("checkpoint: version %d, this build reads %d", c.Version, Version)
	}
	if c.AtNS <= 0 {
		return fmt.Errorf("checkpoint: capture time %d ns not positive", c.AtNS)
	}
	return nil
}

// Write serializes the checkpoint as indented JSON. Go's encoder prints
// float64 values in shortest-round-trip form, so the wire format preserves
// every bit of the captured state.
func Write(w io.Writer, c *Checkpoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		return fmt.Errorf("checkpoint: writing: %w", err)
	}
	return nil
}

// Read parses a checkpoint written by Write and validates it.
func Read(r io.Reader) (*Checkpoint, error) {
	c := &Checkpoint{}
	if err := json.NewDecoder(r).Decode(c); err != nil {
		return nil, fmt.Errorf("checkpoint: reading: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
