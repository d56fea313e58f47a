// Package cluster runs consolidation policies against the data-center model
// under a trace-driven workload. It defines the narrow interface every
// policy (ecocloud, the centralized baselines) implements, and the
// discrete-event driver that feeds arrivals, departures and control ticks to
// the policy while collecting the metrics the paper's figures report.
package cluster

import (
	"time"

	"repro/internal/dc"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Env is the view of the world a policy gets on each callback: the current
// virtual time, the data center, and the recorder for policy events.
type Env struct {
	Now time.Duration
	DC  *dc.DataCenter
	Rec *Recorder
}

// Policy is a VM consolidation algorithm. The driver invokes OnArrival for
// every VM arrival and OnControl once per control interval; policies own all
// placement and migration decisions, including waking and hibernating
// servers.
type Policy interface {
	// OnArrival must place vm on some server, activating one if necessary.
	// If the data center truly cannot host the VM the policy still places it
	// (degraded service) and records a saturation event.
	OnArrival(env Env, vm *trace.VM)
	// OnControl runs the periodic monitoring/migration step.
	OnControl(env Env)
	// Name identifies the policy in experiment output.
	Name() string
}

// Migration kinds recorded by policies. The ecoCloud paper distinguishes
// "low" (from under-utilized servers) and "high" (from overloaded servers);
// centralized baselines use the same two classes so Fig. 9 is comparable.
const (
	MigrationLow  = "low"
	MigrationHigh = "high"
)

// Recorder accumulates policy-side events: migrations by kind and saturation
// events (an arrival found every server busy and none to wake).
type Recorder struct {
	migrations map[string]*metrics.RateCounter
	interval   time.Duration

	// rounds counts migrations per exact virtual timestamp. All migrations
	// of one control round share a timestamp, so this measures how many VMs
	// a policy moves *simultaneously* — the disruption the paper holds
	// against centralized reallocation (§V: "the concurrent migration of
	// many VMs can cause considerable performance degradation").
	rounds map[time.Duration]int

	// Saturations counts arrivals that could not be placed under the
	// admission thresholds anywhere (the paper: a sign the DC needs more
	// servers).
	Saturations int
}

// NewRecorder returns a recorder bucketing rates on the given interval
// (the paper reports per-hour rates computed every 30 minutes).
func NewRecorder(interval time.Duration) *Recorder {
	return &Recorder{
		migrations: make(map[string]*metrics.RateCounter),
		rounds:     make(map[time.Duration]int),
		interval:   interval,
	}
}

// Migration records one migration of the given kind at virtual time t.
func (r *Recorder) Migration(t time.Duration, kind string) {
	c, ok := r.migrations[kind]
	if !ok {
		c = metrics.NewRateCounter(kind, r.interval)
		r.migrations[kind] = c
	}
	c.Record(t)
	r.rounds[t]++
}

// MaxConcurrentMigrations returns the largest number of migrations sharing
// one virtual timestamp (one control round), and MeanConcurrentMigrations
// the mean over rounds that migrated at all.
func (r *Recorder) MaxConcurrentMigrations() int {
	m := 0
	for _, n := range r.rounds {
		if n > m {
			m = n
		}
	}
	return m
}

// MeanConcurrentMigrations returns the average batch size over rounds with
// at least one migration (0 if none occurred).
func (r *Recorder) MeanConcurrentMigrations() float64 {
	if len(r.rounds) == 0 {
		return 0
	}
	sum := 0
	for _, n := range r.rounds {
		sum += n
	}
	return float64(sum) / float64(len(r.rounds))
}

// MigrationCount returns the total number of migrations of the given kind.
func (r *Recorder) MigrationCount(kind string) int {
	if c, ok := r.migrations[kind]; ok {
		return c.Total()
	}
	return 0
}

// MigrationSeries materializes the per-hour rate series for a kind over
// [0, horizon] (all-zero if the kind never occurred).
func (r *Recorder) MigrationSeries(kind string, horizon time.Duration) *metrics.Series {
	if c, ok := r.migrations[kind]; ok {
		return c.PerHour(horizon)
	}
	empty := metrics.NewRateCounter(kind, r.interval)
	return empty.PerHour(horizon)
}

// MaxMigrationsPerHour returns the peak total hourly migration rate across
// all kinds (used for the paper's "<200 migrations/hour" check).
func (r *Recorder) MaxMigrationsPerHour() float64 {
	m := 0.0
	for _, c := range r.migrations {
		if v := c.MaxPerHour(); v > m {
			m = v
		}
	}
	return m
}
