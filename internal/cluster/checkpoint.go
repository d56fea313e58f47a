package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
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
	ck.Inputs = inputsDigest(cfg)
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

// inputsDigest is the hex SHA-256 of everything a run's trajectory depends
// on that a checkpoint does not carry: the fleet specs; each VM's ID,
// Start, End, Epoch, RAMMB and demand samples, bit for bit, in Set order;
// the two cadences, MeasureFrom, the power model, the initial placement
// and RecordServerUtil. A checkpoint records it, and a resume whose inputs
// hash otherwise fails: dc.Restore would find the same VM IDs in another
// workload and continue a run that was never captured. The horizon and
// the engine (Workers, DisableDemandCache) are left out, since a run
// resumes exactly under any of them.
func inputsDigest(cfg *RunConfig) string {
	h := sha256.New()
	put := func(vs ...any) {
		for _, v := range vs {
			// Writing to a hash cannot fail; a type binary.Write cannot
			// encode is a bug here.
			if err := binary.Write(h, binary.LittleEndian, v); err != nil {
				panic(err)
			}
		}
	}
	put(int64(len(cfg.Specs)))
	for _, sp := range cfg.Specs {
		put(int64(sp.Cores), sp.CoreMHz, sp.RAMMB)
	}
	put(int64(len(cfg.Workload.VMs)))
	for _, vm := range cfg.Workload.VMs {
		put(int64(vm.ID), vm.Start, vm.End, vm.Epoch, vm.RAMMB, int64(len(vm.Demand)), vm.Demand)
	}
	put(cfg.ControlInterval, cfg.SampleInterval, cfg.MeasureFrom, cfg.PowerModel, int64(cfg.Initial), cfg.RecordServerUtil)
	return hex.EncodeToString(h.Sum(nil))
}
