package cluster

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/rng"
)

func copySeries(s *metrics.Series) *metrics.Series {
	return &metrics.Series{
		Name: s.Name,
		T:    append([]time.Duration(nil), s.T...),
		V:    append([]float64(nil), s.V...),
	}
}

// captureRunnerState deep-copies the driver's accounting into a serializable
// RunnerState. Capture is pure reads: a run that checkpoints is bit-identical
// to one that does not.
func captureRunnerState(res *Result, rec *Recorder, acc *checkpoint.Accum) *checkpoint.RunnerState {
	st := &checkpoint.RunnerState{
		Accum:     *acc,
		EnergyKWh: res.EnergyKWh,

		ActiveServers: copySeries(res.ActiveServers),
		PowerW:        copySeries(res.PowerW),
		OverallLoad:   copySeries(res.OverallLoad),
		OverDemandPct: copySeries(res.OverDemandPct),
		Activations:   copySeries(res.Activations),
		Hibernations:  copySeries(res.Hibernations),

		Episodes:    res.Episodes.State(),
		Saturations: rec.Saturations,
	}
	for _, t := range res.SampleTimes {
		st.SampleTimesNS = append(st.SampleTimesNS, int64(t))
	}
	for _, row := range res.ServerUtil {
		st.ServerUtil = append(st.ServerUtil, append([]float64(nil), row...))
	}
	if len(rec.migrations) > 0 {
		st.Migrations = make(map[string]metrics.RateCounterState, len(rec.migrations))
		for kind, c := range rec.migrations {
			st.Migrations[kind] = c.State()
		}
	}
	for t, n := range rec.rounds {
		st.Rounds = append(st.Rounds, checkpoint.RoundCount{TNS: int64(t), N: n})
	}
	sort.Slice(st.Rounds, func(i, j int) bool { return st.Rounds[i].TNS < st.Rounds[j].TNS })
	return st
}

// restoreRunnerState reinstates a captured RunnerState into a fresh run's
// result, recorder and accumulators.
func restoreRunnerState(st *checkpoint.RunnerState, res *Result, rec *Recorder, acc *checkpoint.Accum) error {
	if st == nil {
		return fmt.Errorf("cluster: checkpoint has no runner state")
	}
	*acc = st.Accum
	res.EnergyKWh = st.EnergyKWh

	for _, p := range []struct {
		dst *metrics.Series
		src *metrics.Series
	}{
		{res.ActiveServers, st.ActiveServers},
		{res.PowerW, st.PowerW},
		{res.OverallLoad, st.OverallLoad},
		{res.OverDemandPct, st.OverDemandPct},
		{res.Activations, st.Activations},
		{res.Hibernations, st.Hibernations},
	} {
		if p.src == nil {
			continue
		}
		p.dst.T = append([]time.Duration(nil), p.src.T...)
		p.dst.V = append([]float64(nil), p.src.V...)
	}
	for _, ns := range st.SampleTimesNS {
		res.SampleTimes = append(res.SampleTimes, time.Duration(ns))
	}
	for _, row := range st.ServerUtil {
		res.ServerUtil = append(res.ServerUtil, append([]float64(nil), row...))
	}
	res.Episodes.SetState(st.Episodes)

	rec.Saturations = st.Saturations
	for kind, cs := range st.Migrations {
		c := metrics.NewRateCounter(kind, rec.interval)
		c.SetState(cs)
		rec.migrations[kind] = c
	}
	for _, r := range st.Rounds {
		rec.rounds[time.Duration(r.TNS)] = r.N
	}
	return nil
}

// captureCheckpoint assembles the full checkpoint at the end of the control
// tick at now. The policy must implement checkpoint.Checkpointable.
func captureCheckpoint(cfg *RunConfig, policy Policy, env Env, res *Result, rec *Recorder, acc *checkpoint.Accum, now time.Duration) (*checkpoint.Checkpoint, error) {
	cp, ok := policy.(checkpoint.Checkpointable)
	if !ok {
		return nil, fmt.Errorf("policy %q does not support checkpointing", policy.Name())
	}
	ck := checkpoint.New(int64(now))
	ck.Policy = policy.Name()
	ck.DC = env.DC.Snapshot()
	reg := rng.NewRegistry()
	cp.RegisterStreams(reg)
	ck.RNG = reg.States()
	var err error
	ck.PolicyState, err = cp.MarshalCheckpoint()
	if err != nil {
		return nil, err
	}
	ck.Runner = captureRunnerState(res, rec, acc)
	if cfg.obs.Enabled() {
		snap := cfg.obs.Snapshot()
		ck.Obs = &snap
	}
	return ck, nil
}
