package experiments

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/obs"
	"repro/internal/trace"
)

// RunConfig is the cross-experiment core every Options struct embeds: the
// four knobs shared by (nearly) every experiment, plus the telemetry
// recorder threaded down into the simulation layers. Experiments that have
// no direct use for a field document the mapping on their Options type
// (e.g. churn-driven experiments map NumVMs to the initial VM population).
type RunConfig struct {
	Servers int           `json:"servers"` // fleet size
	NumVMs  int           `json:"num_vms"` // workload size
	Horizon time.Duration `json:"horizon"` // simulated time
	Seed    uint64        `json:"seed"`    // master seed

	// Workers routes the per-server control-round work through an
	// internal/par pool with that many workers (0 = sequential). Results
	// are bit-identical at every worker count, so Workers is a throughput
	// knob, not part of the experiment's identity; it still appears in
	// manifests so a recorded run names the engine it used.
	Workers int `json:"workers,omitempty"`

	// Obs receives run telemetry when non-nil; it is not part of the
	// experiment's identity and stays out of manifests.
	Obs *obs.Recorder `json:"-"`
}

// overlay returns def with every non-zero field of o applied on top: the
// merge rule the registry uses to apply caller overrides to an experiment's
// defaults. A zero Seed keeps the default (every default seed is 1, and
// seeded reproduction runs never ask for seed 0).
func (o RunConfig) overlay(def RunConfig) RunConfig {
	if o.Servers > 0 {
		def.Servers = o.Servers
	}
	if o.NumVMs > 0 {
		def.NumVMs = o.NumVMs
	}
	if o.Horizon > 0 {
		def.Horizon = o.Horizon
	}
	if o.Seed != 0 {
		def.Seed = o.Seed
	}
	if o.Workers > 0 {
		def.Workers = o.Workers
	}
	def.Obs = o.Obs
	return def
}

// ClusterConfig converts the cross-experiment core into the cluster run it
// describes: the shared knobs (Horizon, Workers) come from o, the
// per-experiment ones (fleet, workload, cadences, power model) from the
// arguments. Every experiment builds its cluster.RunConfig here and then
// applies its own overrides (Initial, RecordServerUtil, a capped horizon) on
// the returned value — one place to wire new cluster fields instead of a
// hand-copied literal per experiment file. The recorder is not part of the
// result: an experiment whose runs are sequential passes
// cluster.WithObs(o.Obs) to cluster.Run, and one whose runs execute
// concurrently runs them untraced, since a recorder shared across concurrent
// runs would interleave their journals nondeterministically.
func (o RunConfig) ClusterConfig(specs []dc.Spec, ws *trace.Set, control, sample time.Duration, pm dc.PowerModel) cluster.RunConfig {
	return cluster.RunConfig{
		Specs:           specs,
		Workload:        ws,
		Horizon:         o.Horizon,
		ControlInterval: control,
		SampleInterval:  sample,
		PowerModel:      pm,
		Workers:         o.Workers,
	}
}

// scaleInt multiplies n by scale, keeping a workable minimum of 3 so shrunk
// experiments still have a fleet to consolidate.
func scaleInt(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 3 {
		v = 3
	}
	return v
}
