package experiments

import (
	"fmt"

	"repro/internal/metrics"
)

// Replication is one metric's distribution across repeated runs with
// independent seeds. The paper reports single runs; repeating the daily
// experiment quantifies how much of each headline number is seed noise.
type Replication struct {
	Metric string
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
}

// replicationSeeds is how many consecutive seeds, from the request's own,
// the registry's replication entry runs the daily experiment under.
const replicationSeeds = 5

// ReplicateDaily runs the §III experiment once per seed and summarizes the
// headline metrics across the runs.
func ReplicateDaily(opts DailyOptions, seeds []uint64) ([]Replication, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: replicate needs at least one seed")
	}
	accs := map[string]*metrics.Welford{}
	order := []string{
		"energy_kwh", "mean_active_servers", "migrations_total",
		"overload_pct", "activations", "hibernations", "peak_migrations_per_hour",
	}
	for _, m := range order {
		accs[m] = &metrics.Welford{}
	}
	// Runs execute in parallel (they are independent); accumulation happens
	// afterwards in seed order so the Welford state is deterministic.
	results := make([]*DailyResult, len(seeds))
	err := forEach(len(seeds), func(i int) error {
		o := opts
		o.Seed = seeds[i]
		// Replicas run concurrently: sharing the caller's recorder would
		// interleave their journal lines and counters nondeterministically
		// across runs, so each replica executes unobserved — the cross-seed
		// summary, not per-run telemetry, is this experiment's product.
		o.Obs = nil
		res, err := Daily(o)
		if err != nil {
			return fmt.Errorf("experiments: replicate seed %d: %v", seeds[i], err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		r := res.Run
		accs["energy_kwh"].Add(r.EnergyKWh)
		accs["mean_active_servers"].Add(r.MeanActiveServers)
		accs["migrations_total"].Add(float64(r.TotalLowMigrations + r.TotalHighMigrations))
		accs["overload_pct"].Add(100 * r.VMOverloadTimeFrac)
		accs["activations"].Add(float64(r.TotalActivations))
		accs["hibernations"].Add(float64(r.TotalHibernations))
		accs["peak_migrations_per_hour"].Add(r.MaxMigrationsPerHour)
	}
	out := make([]Replication, 0, len(order))
	for _, m := range order {
		w := accs[m]
		out = append(out, Replication{
			Metric: m, N: w.N(), Mean: w.Mean(), Std: w.Stddev(),
			Min: w.Min(), Max: w.Max(),
		})
	}
	return out, nil
}

// ReplicationFigure materializes the summary (metric_idx follows the order
// ReplicateDaily emits).
func ReplicationFigure(reps []Replication) *Figure {
	f := &Figure{
		ID:      "replication",
		Title:   "Daily-run headline metrics across independent seeds (mean ± sd)",
		Columns: []string{"metric_idx", "n", "mean", "std", "min", "max"},
	}
	for i, r := range reps {
		f.Add(float64(i), float64(r.N), r.Mean, r.Std, r.Min, r.Max)
		f.Notef("%s: %.3f ± %.3f (min %.3f, max %.3f, n=%d)",
			r.Metric, r.Mean, r.Std, r.Min, r.Max, r.N)
	}
	return f
}
