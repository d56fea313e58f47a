package cluster

import (
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
)

// Option mutates a RunConfig before Run validates it. Options exist for the
// attachments that are not part of a run's identity — the telemetry
// recorder, checkpoint capture and resume — so call sites read as
//
//	cluster.Run(cfg, policy, cluster.WithObs(rec))
//
// with cfg carrying only the simulation itself (fleet, workload, horizon,
// cadences, power model, engine).
type Option func(*RunConfig)

// WithObs attaches a telemetry recorder to the run: engine metrics (events,
// queue depth, handler wall time), cluster counters (assignments, removals,
// migrations by kind, activations, hibernations, overload ticks), live
// gauges (sim time, active servers), and — when the recorder carries a
// journal — one JSONL event per policy-driven data-center mutation. Setup
// mutations (the SpreadRoundRobin pre-placement) are not journaled or
// counted: telemetry reflects policy behaviour only. A nil recorder leaves
// telemetry off.
func WithObs(r *obs.Recorder) Option {
	return func(c *RunConfig) { c.obs = r }
}

// WithCheckpointAt makes Run capture a full checkpoint at the end of the
// control tick at virtual time at — a positive multiple of ControlInterval,
// before the horizon — and hand it to sink. A non-nil error from sink aborts
// the run and is returned from Run. Capture is pure reads: the run's results
// are bit-identical with or without a checkpoint in the middle.
func WithCheckpointAt(at time.Duration, sink func(*checkpoint.Checkpoint) error) Option {
	return func(c *RunConfig) {
		c.checkpointAt = at
		c.checkpointSink = sink
	}
}

// WithCheckpointStop stops the run right after the checkpoint is captured
// and delivered; the Result then covers only the prefix up to the capture.
// Use it to write a checkpoint that a later run resumes from.
func WithCheckpointStop() Option {
	return func(c *RunConfig) { c.checkpointStop = true }
}

// WithResume starts the run from a checkpoint instead of t=0: the data
// center, policy state (rng streams included), driver accounting and obs
// counters are reinstated, and arrivals and departures before the capture
// point are skipped. The configuration must hold the fleet, workload,
// cadences, power model and initial placement the checkpoint was captured
// under, or Run fails before restoring anything; the continued run is then
// bit-identical to the uninterrupted one at any worker count.
func WithResume(ck *checkpoint.Checkpoint) Option {
	return func(c *RunConfig) { c.resume = ck }
}
