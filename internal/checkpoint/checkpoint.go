// Package checkpoint turns a running simulation into a serializable value
// and back. A Checkpoint captures everything a resumed run needs to be
// BIT-IDENTICAL to the uninterrupted one: the data center's extended
// snapshot (placements, power states, SoA hot arrays, demand-kernel
// aggregates and counters; no per-VM state), every live rng stream
// under a stable label (all four xoshiro words plus the Marsaglia spare
// cache), the policy's private state, the cluster driver's accounting
// (series, accumulators, episode and migration trackers), and the obs
// counter/gauge values.
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
	"repro/internal/rng"
)

// Version is the current checkpoint wire-format version.
const Version = 1

// Checkpoint is the full serializable state of a simulation at one instant.
type Checkpoint struct {
	Version int `json:"version"`
	// AtNS is the virtual capture time (the end of the control tick at that
	// timestamp).
	AtNS int64 `json:"at_ns"`
	// Policy names the policy the state belongs to; resume refuses a
	// mismatched policy rather than adopting foreign state.
	Policy string `json:"policy,omitempty"`

	// DC is the data center's extended snapshot (see dc.Snapshot).
	DC dc.Snapshot `json:"dc"`
	// RNG holds every live stream's state keyed by the owner-assigned label
	// (see Checkpointable).
	RNG map[string]rng.State `json:"rng,omitempty"`
	// PolicyState is the policy's opaque non-rng state (see Checkpointable).
	PolicyState json.RawMessage `json:"policy_state,omitempty"`
	// Runner is the cluster driver's accounting (see RunnerState).
	Runner *RunnerState `json:"runner,omitempty"`
	// Obs carries the counter/gauge values of the run's telemetry registry.
	// Timers are excluded: they measure host wall time, not simulation state.
	Obs *obs.Snapshot `json:"obs,omitempty"`

	// Meta is informational provenance (seed, fleet size, experiment name)
	// written by the assembling layer so a resume can sanity-check that it
	// rebuilt the same workload. The simulation state never reads it.
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
// checkpointed: their live rng streams and their private non-rng state, such
// as ecoCloud's invitation group cursor, survive a checkpoint. Stream labels
// must be stable across processes (derive them from IDs, not from creation
// order) and globally unique within one checkpoint.
type Checkpointable interface {
	// RegisterStreams adds every currently live stream to reg under its
	// stable label.
	RegisterStreams(reg *rng.Registry)
	// AdoptStreams installs the captured states, creating streams that do
	// not exist yet (e.g. lazily derived per-server streams) and failing on
	// labels it does not recognize.
	AdoptStreams(states map[string]rng.State) error
	// MarshalCheckpoint returns the non-rng state as a self-contained JSON
	// value.
	MarshalCheckpoint() (json.RawMessage, error)
	// UnmarshalCheckpoint reinstates it on a freshly constructed instance
	// with the same configuration.
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
