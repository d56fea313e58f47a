package cluster

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dc"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/trace"
)

// InitialPlacement selects how VMs alive at t=0 enter the data center.
type InitialPlacement int

const (
	// ArriveThroughPolicy feeds t=0 VMs through the policy's assignment
	// procedure one by one (a consolidated start — what a data center that
	// has been running ecoCloud looks like at midnight).
	ArriveThroughPolicy InitialPlacement = iota
	// SpreadRoundRobin pre-places t=0 VMs round-robin across ALL servers,
	// activating every server: the paper's "non consolidated scenario" that
	// the Fig. 12 experiment starts from. Pre-activated servers get no
	// grace period (their ActivatedAt is set well in the past).
	SpreadRoundRobin
)

// RunConfig describes one simulation run.
type RunConfig struct {
	Specs    []dc.Spec
	Workload *trace.Set
	Horizon  time.Duration

	// ControlInterval is the cadence of the migration scan and of overload
	// observation (default 5 minutes, the trace epoch).
	ControlInterval time.Duration
	// SampleInterval is the cadence of the reported series (the paper
	// computes all metrics every 30 minutes).
	SampleInterval time.Duration

	// MeasureFrom excludes the warm-up prefix [0, MeasureFrom) from the
	// aggregate accounting: VMOverloadTimeFrac, RAMOverloadTimeFrac,
	// GrantedFracInOverload and MeanActiveServers only integrate control
	// ticks at t >= MeasureFrom. The sampled series, episode tracker,
	// counters and energy integral still cover the whole run — warm-up
	// trimming is a measurement concern, not a simulation one. Zero (the
	// default) measures from t=0, which is the historical behaviour. Used
	// by the knee experiment, whose ramp slots need steady-state violation
	// fractions uncontaminated by the fill-up transient.
	MeasureFrom time.Duration

	PowerModel dc.PowerModel
	Initial    InitialPlacement

	// Workers is the number of internal/par workers that run the per-server
	// phases of each control round (overload observation, checked-mode
	// audits, utilization sampling). Every phase runs through the pool's
	// static shards at every worker count; below 2 the pool runs them
	// inline, so 0 and 1 are one configuration. From 2 up, the workers also
	// prewarm the demand kernel before the policy's scan and fan out the
	// per-VM demand reads of the sample tick. Results are bit-identical at
	// every worker count (see DESIGN.md "Parallel execution &
	// determinism"); only wall-clock time and the demand kernel's hit/miss
	// split differ.
	Workers int

	// RecordServerUtil stores a per-server utilization sample matrix
	// (Figs. 6 and 12); costs Samples×Servers float64s.
	RecordServerUtil bool

	// DisableDemandCache turns off the incremental demand kernel, forcing
	// every Server.DemandAt back to the naive per-VM recomputation. Results
	// are bit-identical either way (that is the kernel's contract); the
	// switch exists for the differential tests and the naive-vs-cached
	// scalability benchmarks.
	DisableDemandCache bool

	// checkpointAt, when nonzero, makes Run capture a full checkpoint at the
	// end of the control tick at that virtual time and hand it to
	// checkpointSink. The control tick is the last event at its timestamp
	// (for t > 0), so the capture is a well-defined cut of the simulation;
	// checkpointAt must be a positive multiple of ControlInterval and before
	// the horizon. Capture is pure reads: a checkpointing run's results are
	// bit-identical to a non-checkpointing one. Set via WithCheckpointAt.
	checkpointAt time.Duration
	// checkpointSink receives the captured checkpoint. A non-nil error
	// aborts the run and is returned from Run.
	checkpointSink func(*checkpoint.Checkpoint) error
	// checkpointStop stops the run right after the capture is delivered; the
	// returned Result then covers only the prefix [0, checkpointAt]. Set via
	// WithCheckpointStop.
	checkpointStop bool
	// resume, when set, starts the run from the checkpoint instead of t=0:
	// the data center, policy state (rng streams included), driver
	// accounting and obs counters are reinstated, arrivals and departures
	// before the capture point are skipped, and the tick cadences continue
	// exactly where the captured run left off — the continued run is
	// bit-identical (CSV and journal) to the uninterrupted one. The rest of
	// the configuration must hold the inputs the checkpoint was captured
	// under (see inputsDigest); Run refuses other inputs. Set via
	// WithResume.
	resume *checkpoint.Checkpoint

	// obs receives run telemetry; set via WithObs. Nil (the default) costs
	// the run nothing.
	obs *obs.Recorder
}

// Validate reports whether the run configuration is usable.
func (c RunConfig) Validate() error {
	switch {
	case len(c.Specs) == 0:
		return fmt.Errorf("cluster: no servers")
	case c.Workload == nil || len(c.Workload.VMs) == 0:
		return fmt.Errorf("cluster: no workload")
	case c.Horizon <= 0:
		return fmt.Errorf("cluster: Horizon = %v", c.Horizon)
	case c.ControlInterval <= 0:
		return fmt.Errorf("cluster: ControlInterval = %v", c.ControlInterval)
	case c.SampleInterval <= 0:
		return fmt.Errorf("cluster: SampleInterval = %v", c.SampleInterval)
	case c.MeasureFrom < 0:
		return fmt.Errorf("cluster: MeasureFrom = %v", c.MeasureFrom)
	case c.MeasureFrom >= c.Horizon:
		return fmt.Errorf("cluster: MeasureFrom %v is not before the horizon %v", c.MeasureFrom, c.Horizon)
	case c.PowerModel.PeakW <= 0:
		return fmt.Errorf("cluster: power model peak = %v", c.PowerModel.PeakW)
	case c.Workers < 0:
		return fmt.Errorf("cluster: Workers = %d", c.Workers)
	}
	if c.checkpointAt != 0 {
		switch {
		case c.checkpointAt < 0:
			return fmt.Errorf("cluster: checkpoint at %v is negative", c.checkpointAt)
		case c.checkpointAt%c.ControlInterval != 0:
			return fmt.Errorf("cluster: checkpoint at %v is not a multiple of the control interval %v", c.checkpointAt, c.ControlInterval)
		case c.checkpointAt >= c.Horizon:
			return fmt.Errorf("cluster: checkpoint at %v is not before the horizon %v", c.checkpointAt, c.Horizon)
		case c.checkpointSink == nil:
			return fmt.Errorf("cluster: WithCheckpointAt without a sink")
		}
	}
	if c.checkpointStop && c.checkpointAt == 0 {
		return fmt.Errorf("cluster: WithCheckpointStop without WithCheckpointAt")
	}
	return nil
}

// Result carries everything the paper's figures and in-text claims need.
type Result struct {
	Policy  string
	Horizon time.Duration

	// Sampled series (one point per SampleInterval, t=0 included).
	ActiveServers  *metrics.Series // Fig. 7
	PowerW         *metrics.Series // Fig. 8
	OverallLoad    *metrics.Series // the reference dots of Figs. 6/12
	OverDemandPct  *metrics.Series // Fig. 11 (% of VM-time in overload)
	LowMigrations  *metrics.Series // Fig. 9
	HighMigrations *metrics.Series // Fig. 9
	Activations    *metrics.Series // Fig. 10 (per hour)
	Hibernations   *metrics.Series // Fig. 10 (per hour)

	// Per-server utilization samples (Figs. 6/12): ServerUtil[i][s] is
	// server s's utilization at SampleTimes[i]. Empty unless requested.
	SampleTimes []time.Duration
	ServerUtil  [][]float64

	// Overload episodes at server granularity, measured in control ticks.
	Episodes *metrics.EpisodeTracker

	// Aggregates.
	TotalLowMigrations  int
	TotalHighMigrations int
	TotalActivations    int
	TotalHibernations   int
	Saturations         int
	EnergyKWh           float64
	MeanActiveServers   float64
	FinalActiveServers  int
	// VMOverloadTimeFrac is the fraction of VM-time spent on overloaded
	// servers (the paper's Fig. 11 metric, as a fraction not percent).
	VMOverloadTimeFrac float64
	// GrantedFracInOverload is demanded CPU actually granted during
	// overloaded server-ticks (paper: >= 98% even inside violations).
	GrantedFracInOverload float64
	// RAMOverloadTimeFrac is the fraction of VM-time on servers whose
	// memory is overcommitted (used > capacity). Always 0 when the fleet
	// does not model RAM; the §V extension is judged on it.
	RAMOverloadTimeFrac  float64
	MaxMigrationsPerHour float64
	// Migration batch sizes per control round: the simultaneous-migration
	// disruption the paper argues against for centralized schemes.
	MaxConcurrentMigrations  int
	MeanConcurrentMigrations float64
	// DemandCache reports the demand kernel's hit/miss/invalidation traffic
	// for the run (all zero when DisableDemandCache was set).
	DemandCache dc.DemandCacheStats
}

// SameResult is the exact oracle between two runs of one simulation: it
// returns nil when got equals want under reflect.DeepEqual in every field
// but DemandCache, and otherwise an error naming the first field that
// differs. DemandCache is left out because its hit/miss split depends on
// the engine that ran the simulation (the naive path, the pool's prewarm),
// not on the simulation itself.
func SameResult(want, got *Result) error {
	w, g := reflect.ValueOf(want).Elem(), reflect.ValueOf(got).Elem()
	for i := 0; i < w.NumField(); i++ {
		name := w.Type().Field(i).Name
		if name != "DemandCache" && !reflect.DeepEqual(w.Field(i).Interface(), g.Field(i).Interface()) {
			return fmt.Errorf("cluster: results differ in %s", name)
		}
	}
	return nil
}

// observeDCEvent counts one data-center mutation into the telemetry
// recorder and mirrors it to the recorder's JSONL journal.
func observeDCEvent(r *obs.Recorder, now time.Duration, e dc.Event) {
	if !r.Enabled() {
		return
	}
	switch e.Kind {
	case dc.EventPlace:
		r.Count("cluster.assignments", 1)
	case dc.EventRemove:
		r.Count("cluster.removals", 1)
	case dc.EventMigrate:
		r.Count("cluster.migrations", 1)
	case dc.EventActivate:
		r.Count("cluster.wakeups", 1)
	case dc.EventHibernate:
		r.Count("cluster.hibernations", 1)
	case dc.EventFail:
		r.Count("cluster.failures", 1)
	case dc.EventRecover:
		r.Count("cluster.recoveries", 1)
	case dc.EventCrashEvict:
		r.Count("cluster.crash_evictions", 1)
	}
	if r.Journaling() {
		r.Emit(now, string(e.Kind), e.Fields())
	}
}

// Run executes the workload against the policy and collects metrics.
// Options are applied to cfg (overriding its fields) before validation; see
// Option for the attachment knobs available. Every call validates cfg, the
// checkpoint it resumes from, if any, and the workload through
// trace.Set.Validate: a Set from one of trace's constructors was checked
// where it was built and passes at once, while a Set built by hand is
// scanned VM by VM on every call. VMs arrive in Set order, which Validate
// holds to (Start, ID) order.
func Run(cfg RunConfig, policy Policy, opts ...Option) (*Result, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Workload.Validate(); err != nil {
		return nil, err
	}
	resume := cfg.resume
	var resumeAt time.Duration
	if resume != nil {
		if err := resume.Validate(); err != nil {
			return nil, err
		}
		resumeAt = time.Duration(resume.AtNS)
		switch {
		case resume.Policy != "" && resume.Policy != policy.Name():
			return nil, fmt.Errorf("cluster: checkpoint belongs to policy %q, resuming with %q", resume.Policy, policy.Name())
		case resumeAt >= cfg.Horizon:
			return nil, fmt.Errorf("cluster: checkpoint at %v is not before the horizon %v", resumeAt, cfg.Horizon)
		case resumeAt%cfg.ControlInterval != 0:
			return nil, fmt.Errorf("cluster: checkpoint at %v is not aligned to the control interval %v", resumeAt, cfg.ControlInterval)
		case cfg.checkpointAt != 0 && cfg.checkpointAt <= resumeAt:
			return nil, fmt.Errorf("cluster: checkpoint at %v is not after the resume point %v", cfg.checkpointAt, resumeAt)
		case resume.Inputs != inputsDigest(&cfg):
			return nil, fmt.Errorf("cluster: checkpoint was captured from other inputs: this run's fleet, workload, cadences, MeasureFrom, power model, initial placement or RecordServerUtil differ")
		}
	}

	var d *dc.DataCenter
	if resume != nil {
		// Rebuild the data center from the checkpoint: placements replayed
		// from the snapshot, then the hot state (RAM accumulator, kernel
		// aggregates and counters) reinstated on top.
		var err error
		d, err = dc.Restore(cfg.Specs, cfg.Workload, resume.DC)
		if err != nil {
			return nil, err
		}
	} else {
		d = dc.New(cfg.Specs)
	}
	d.SetDemandCache(!cfg.DisableDemandCache)
	rec := NewRecorder(cfg.SampleInterval)
	eng := sim.New()
	eng.SetRecorder(cfg.obs)

	// Fork-join pool for the per-server work of each control round; below
	// two workers it runs every span inline. The pool lives for the whole
	// run; each tick's fan-outs join before the tick handler returns, so
	// the engine's single-threaded execution model is preserved.
	pool := par.New(cfg.Workers)
	defer pool.Close()

	res := &Result{
		Policy:                policy.Name(),
		Horizon:               cfg.Horizon,
		ActiveServers:         metrics.NewSeries("active_servers"),
		PowerW:                metrics.NewSeries("power_w"),
		OverallLoad:           metrics.NewSeries("overall_load"),
		OverDemandPct:         metrics.NewSeries("overdemand_pct"),
		Activations:           metrics.NewSeries("activations_per_hour"),
		Hibernations:          metrics.NewSeries("hibernations_per_hour"),
		Episodes:              metrics.NewEpisodeTracker(cfg.ControlInterval),
		GrantedFracInOverload: 1,
	}

	totalCapacity := d.TotalCapacityMHz()
	vms := cfg.Workload.VMs

	// Initial placement: a fresh SpreadRoundRobin run places every VM that
	// starts at 0, and those VMs get no arrival event. A resumed run
	// restores placements from the checkpoint instead; the
	// scenario-construction phase happened in the captured run's own prefix.
	spread := resume == nil && cfg.Initial == SpreadRoundRobin
	if spread {
		// Activate everything with ActivatedAt far in the past (no grace).
		for _, s := range d.Servers {
			if err := d.Activate(s, 0); err != nil {
				return nil, err
			}
			s.SetActivatedAt(-1000 * time.Hour)
		}
		d.Activations = 0 // setup, not policy behaviour
		i := 0
		for _, vm := range vms {
			if vm.Start != 0 {
				continue
			}
			if err := d.Place(vm, d.Servers[i%len(d.Servers)]); err != nil {
				return nil, err
			}
			i++
		}
	}

	// The journal goes in only after initial placement: setup mutations are
	// scenario construction, not policy behaviour, and counting them used to
	// inflate cluster.assignments / cluster.wakeups and pollute the JSONL
	// journal on SpreadRoundRobin runs even though d.Activations was reset.
	if cfg.obs.Enabled() {
		d.SetJournal(func(e dc.Event) { observeDCEvent(cfg.obs, eng.Now(), e) })
	}

	// Arrival and departure events. A resumed run schedules only the events
	// strictly after the capture point: earlier arrivals are embodied in the
	// restored placements, earlier departures already happened. The loop
	// order (and therefore the engine's FIFO tie-breaking among coincident
	// events) is the same (Start, ID) order as the uninterrupted run's.
	for _, vm := range vms {
		vm := vm
		if resume != nil {
			if vm.Start <= resumeAt && vm.End > resumeAt {
				if _, ok := d.HostOf(vm.ID); !ok {
					return nil, fmt.Errorf("cluster: resume: VM %d alive at %v is not placed in the checkpoint", vm.ID, resumeAt)
				}
			}
			if vm.Start <= resumeAt && vm.End <= resumeAt {
				continue
			}
		}
		preplaced := spread && vm.Start == 0
		if vm.Start > resumeAt || (resume == nil && !preplaced) {
			eng.Schedule(vm.Start, "arrival", func(e *sim.Engine) {
				policy.OnArrival(Env{Now: e.Now(), DC: d, Rec: rec}, vm)
			})
		}
		if vm.End > resumeAt && vm.End < cfg.Horizon {
			eng.Schedule(vm.End, "departure", func(e *sim.Engine) {
				if _, err := d.Remove(vm.ID); err != nil {
					panic(fmt.Sprintf("cluster: departing VM %d: %v", vm.ID, err))
				}
			})
		}
	}

	// Overload accounting shared between control and sample ticks.
	var acc checkpoint.Accum

	// Resume: reinstate the policy's state, rng streams included, the
	// driver's accounting, and the obs counters/gauges (timers are wall-clock
	// telemetry and stay fresh).
	if resume != nil {
		cp, ok := policy.(checkpoint.Checkpointable)
		if !ok {
			return nil, fmt.Errorf("cluster: policy %q does not support checkpoint resume", policy.Name())
		}
		if err := cp.UnmarshalCheckpoint(resume.PolicyState); err != nil {
			return nil, err
		}
		if err := restoreRunnerState(resume.Runner, res, rec, &acc); err != nil {
			return nil, err
		}
		if resume.Obs != nil {
			cfg.obs.RestoreMetrics(*resume.Obs)
		}
	}

	// Per-run scratch and the per-server phases of a tick, built once per
	// run. Each phase fills disjoint per-server slots for the tick at at
	// through pool.Range, and the caller folds the slots sequentially in
	// server-index order, reproducing the sequential loop's float-operation
	// order exactly.
	nServers := len(d.Servers)
	slots := make([]dc.TickSample, nServers)
	var (
		at        time.Duration
		row       []float64
		auditErrs []error
	)
	observeSpan := func(sp par.Span) { d.ObserveSpan(sp.Lo, sp.Hi, at, slots[sp.Lo:sp.Hi]) }
	utilSpan := func(sp par.Span) { d.UtilSpan(sp.Lo, sp.Hi, at, row[sp.Lo:sp.Hi]) }
	auditSpan := func(sp par.Span) { auditErrs[sp.Index] = d.AuditSpan(sp.Lo, sp.Hi, at) }

	// Two more phases pay only with goroutines. The prewarm refills every
	// active server's demand aggregate across the workers so the
	// sequential scans that follow (the policy's decision loop, the energy
	// integral) run on cache hits; the warmed value is bit-identical to
	// what a miss would install and the warm itself is uncounted, so only
	// the hit/miss split shifts — never a result. The sample tick's per-VM
	// demand reads fan out as spans (one bounds-checked loop per shard, not
	// one closure per VM) and are folded in slice order, the sum
	// trace.Set.TotalDemandAt makes, bit for bit.
	var warmSpan, demandSpan func(par.Span)
	var demandScratch []float64
	if pool.Parallel() {
		warmSpan = func(sp par.Span) { d.WarmSpan(sp.Lo, sp.Hi, at) }
		demandScratch = make([]float64, len(vms))
		demandSpan = func(sp par.Span) {
			for i := sp.Lo; i < sp.Hi; i++ {
				demandScratch[i] = vms[i].DemandAt(at)
			}
		}
	}

	// capErr carries a checkpoint-capture or sink failure out of the control
	// tick; a set capErr stops the engine and fails the run.
	var capErr error

	// Control tick: let the policy act, then observe. Observing after the
	// policy mirrors the paper's setup, where servers monitor utilization
	// every few seconds and request relief immediately: overload that the
	// policy can fix within one monitoring latency never accumulates
	// violation time; what we count is the overload that persists.
	controlTick := func(e *sim.Engine) {
		now := e.Now()
		at = now
		if warmSpan != nil {
			pool.Range(nServers, warmSpan)
		}
		policy.OnControl(Env{Now: now, DC: d, Rec: rec})
		if d.Checked() {
			// Structural invariants are verified per mutation in checked
			// mode; the numeric audit is per control tick, with the first
			// error in server-index order reported, like a sequential sweep.
			if auditErrs == nil {
				auditErrs = make([]error, len(par.Shards(nServers)))
			}
			pool.Range(nServers, auditSpan)
			for _, err := range auditErrs {
				if err != nil {
					panic(fmt.Sprintf("cluster: control tick at %v: %v", now, err))
				}
			}
		}
		pool.Range(nServers, observeSpan)
		// Warm-up gate: ticks before MeasureFrom feed the windowed series and
		// the episode tracker (which report over time and can show the
		// transient honestly) but not the whole-run aggregates.
		measured := now >= cfg.MeasureFrom
		for i := range slots {
			sl := &slots[i]
			if !sl.Active {
				continue
			}
			res.Episodes.Observe(d.Servers[i].ID, sl.Over)
			acc.WinVMTicks += sl.NVMs
			if sl.Over {
				acc.WinVMOverTicks += sl.NVMs
				cfg.obs.Count("cluster.overload_server_ticks", 1)
			}
			if !measured {
				continue
			}
			acc.VMTicks += sl.NVMs
			if sl.Over {
				acc.VMOverTicks += sl.NVMs
				acc.OverDemandMHz += sl.Demand
				acc.OverCapacityMHz += sl.Cap
			}
			if sl.RAMOver {
				acc.VMRAMOverTicks += sl.NVMs
			}
		}
		if measured {
			acc.ActiveTickSum += float64(d.ActiveCount())
			acc.ControlTicks++
		}
		// Energy: integrate draw over the next interval (left Riemann sum),
		// clamped so the run integrates exactly [0, Horizon): the tick at
		// t == Horizon contributes nothing, and a final partial interval
		// (horizon not a multiple of ControlInterval) is cut at the horizon
		// instead of over-integrating a full slice.
		slice := cfg.ControlInterval
		if rem := cfg.Horizon - now; rem < slice {
			slice = rem
		}
		if slice > 0 {
			res.EnergyKWh += d.PowerAt(now, cfg.PowerModel) * slice.Hours() / 1000
		}
		if cfg.obs.Enabled() {
			cfg.obs.Gauge("cluster.active_servers", int64(d.ActiveCount()))
			cfg.obs.Gauge("cluster.vms_placed", int64(d.NumPlaced()))
		}
		// Checkpoint capture: the end of the control tick at checkpointAt is
		// the last instruction executed at that timestamp, so the captured
		// state is exactly "the simulation after time checkpointAt". Capture
		// reads; it never mutates — the run's own results are unchanged.
		if cfg.checkpointAt != 0 && now == cfg.checkpointAt {
			ck, err := captureCheckpoint(&cfg, policy, Env{Now: now, DC: d, Rec: rec}, res, rec, &acc, now)
			if err == nil {
				err = cfg.checkpointSink(ck)
			}
			if err != nil {
				capErr = fmt.Errorf("cluster: checkpoint at %v: %w", now, err)
				e.Stop()
				return
			}
			if cfg.checkpointStop {
				e.Stop()
			}
		}
	}

	// Sample tick: record the reported series.
	sampleTick := func(e *sim.Engine) {
		now := e.Now()
		at = now
		cfg.obs.SampleMemory()
		res.ActiveServers.Add(now, float64(d.ActiveCount()))
		res.PowerW.Add(now, d.PowerAt(now, cfg.PowerModel))
		var demand float64
		if demandSpan != nil {
			pool.Range(len(vms), demandSpan)
			for _, v := range demandScratch {
				demand += v
			}
		} else {
			demand = cfg.Workload.TotalDemandAt(now)
		}
		res.OverallLoad.Add(now, demand/totalCapacity)
		pct := 0.0
		if acc.WinVMTicks > 0 {
			pct = 100 * acc.WinVMOverTicks / acc.WinVMTicks
		}
		res.OverDemandPct.Add(now, pct)
		acc.WinVMTicks, acc.WinVMOverTicks = 0, 0

		hours := cfg.SampleInterval.Hours()
		res.Activations.Add(now, float64(d.Activations-acc.LastActivations)/hours)
		res.Hibernations.Add(now, float64(d.Hibernations-acc.LastHibernations)/hours)
		acc.LastActivations, acc.LastHibernations = d.Activations, d.Hibernations

		if cfg.RecordServerUtil {
			row = make([]float64, nServers)
			pool.Range(nServers, utilSpan)
			res.SampleTimes = append(res.SampleTimes, now)
			res.ServerUtil = append(res.ServerUtil, row)
		}
	}

	// Tick scheduling. A fresh run registers control before sample, so the
	// t=0 tick runs control first; from then on each tick reschedules itself
	// and the engine's FIFO order makes sample precede control at every later
	// shared timestamp. A resumed run reproduces exactly that steady state:
	// sample is registered first (lower sequence number at coincident
	// timestamps) with its first fire at the next sample multiple after the
	// capture point, control second at capture + ControlInterval.
	if resume != nil {
		sampleFirst := (resumeAt/cfg.SampleInterval + 1) * cfg.SampleInterval
		eng.Every(sampleFirst, cfg.SampleInterval, "sample", sampleTick)
		eng.Every(resumeAt+cfg.ControlInterval, cfg.ControlInterval, "control", controlTick)
	} else {
		eng.Every(0, cfg.ControlInterval, "control", controlTick)
		eng.Every(0, cfg.SampleInterval, "sample", sampleTick)
	}

	eng.Run(cfg.Horizon)
	if capErr != nil {
		return nil, capErr
	}

	if err := d.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("cluster: post-run: %v", err)
	}
	res.Episodes.Flush()
	res.LowMigrations = rec.MigrationSeries(MigrationLow, cfg.Horizon)
	res.HighMigrations = rec.MigrationSeries(MigrationHigh, cfg.Horizon)
	res.TotalLowMigrations = rec.MigrationCount(MigrationLow)
	res.TotalHighMigrations = rec.MigrationCount(MigrationHigh)
	res.TotalActivations = d.Activations
	res.TotalHibernations = d.Hibernations
	res.Saturations = rec.Saturations
	res.FinalActiveServers = d.ActiveCount()
	res.MaxMigrationsPerHour = rec.MaxMigrationsPerHour()
	res.MaxConcurrentMigrations = rec.MaxConcurrentMigrations()
	res.MeanConcurrentMigrations = rec.MeanConcurrentMigrations()
	res.DemandCache = d.DemandCacheStats()
	if cfg.obs.Enabled() {
		cfg.obs.Count("dc.demand_cache.hits", int64(res.DemandCache.Hits))
		cfg.obs.Count("dc.demand_cache.misses", int64(res.DemandCache.Misses))
		cfg.obs.Count("dc.demand_cache.invalidations", int64(res.DemandCache.Invalidations))
	}
	if acc.ControlTicks > 0 {
		res.MeanActiveServers = acc.ActiveTickSum / acc.ControlTicks
	}
	if acc.VMTicks > 0 {
		res.VMOverloadTimeFrac = acc.VMOverTicks / acc.VMTicks
		res.RAMOverloadTimeFrac = acc.VMRAMOverTicks / acc.VMTicks
	}
	if acc.OverDemandMHz > 0 {
		res.GrantedFracInOverload = acc.OverCapacityMHz / acc.OverDemandMHz
	}
	return res, nil
}
