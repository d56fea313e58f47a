// Package faults injects deterministic hardware failures into a running
// simulation: server crashes and repairs on per-server exponential clocks,
// wake-up commands that fail or stall, and (through netsim.Impairments,
// configured alongside) message loss. The paper evaluates ecoCloud on
// perfect hardware; this package measures how the self-organizing algorithm
// degrades when the data center misbehaves — the re-placement storm after a
// crash is ordinary ecoCloud assignment, just bursty, so availability and
// recovery latency are emergent properties of the same Bernoulli trials.
//
// Determinism: every draw comes from streams split off one seed by label
// (SplitIndex("crash", id), SplitIndex("wake", id)), never from creation or
// delivery order, so a fault schedule is a pure function of (seed, config)
// and reruns are bit-identical.
package faults

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Target is the machinery the injector breaks. internal/protocol.Cluster
// implements it; the interface keeps this package free of protocol imports.
type Target interface {
	// CrashServer fails the server and returns the VMs it was hosting
	// (nil when it was already failed).
	CrashServer(id int) []*trace.VM
	// RecoverServer repairs a failed server back to the hibernated pool.
	RecoverServer(id int)
	// ReplaceVM re-enters an evacuated VM into normal placement.
	ReplaceVM(vm *trace.VM)
}

// Config parameterizes the fault schedule. The zero value injects nothing.
type Config struct {
	// MTBF is each server's mean time between failures (exponential,
	// independent per server). Zero disables crash injection.
	MTBF time.Duration
	// MTTR is the mean time to repair a crashed server (exponential).
	// Required positive when MTBF is set.
	MTTR time.Duration

	// WakeFailProb is the probability a wake command is silently ignored by
	// the hardware. WakeDelayProb is the probability a successful wake
	// stalls; the stall is exponential with mean WakeDelay.
	WakeFailProb  float64
	WakeDelayProb float64
	WakeDelay     time.Duration

	// Obs, when set, receives faults.* telemetry. Nil costs nothing.
	Obs *obs.Recorder `json:"-"`
}

// DefaultConfig is an unreliable-but-survivable data center: a crash every
// 6 h per server on average, half-hour repairs, and flaky wake-ups.
func DefaultConfig() Config {
	return Config{
		MTBF:          6 * time.Hour,
		MTTR:          30 * time.Minute,
		WakeFailProb:  0.05,
		WakeDelayProb: 0.10,
		WakeDelay:     2 * time.Minute,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.MTBF < 0 || c.MTTR < 0 || c.WakeDelay < 0:
		return fmt.Errorf("faults: negative duration in config")
	case c.MTBF > 0 && c.MTTR <= 0:
		return fmt.Errorf("faults: MTBF %v needs a positive MTTR", c.MTBF)
	case c.WakeFailProb < 0 || c.WakeFailProb >= 1:
		return fmt.Errorf("faults: WakeFailProb = %v", c.WakeFailProb)
	case c.WakeDelayProb < 0 || c.WakeDelayProb >= 1:
		return fmt.Errorf("faults: WakeDelayProb = %v", c.WakeDelayProb)
	case c.WakeDelayProb > 0 && c.WakeDelay <= 0:
		return fmt.Errorf("faults: WakeDelayProb %v needs a positive WakeDelay", c.WakeDelayProb)
	}
	return nil
}

// Stats aggregates what the faults experiment reports.
type Stats struct {
	Crashes    int
	Recoveries int

	VMsEvacuated int // crash victims sent back into placement
	Replaced     int // evacuated VMs that landed again

	// DowntimeSeconds is eviction-to-re-placement time accumulated by
	// evacuated VMs (including windows still open at the horizon).
	DowntimeSeconds float64

	// MaxStorm is the largest single-crash evacuation burst.
	MaxStorm int

	// RepairSeconds sums crash-to-recovery time over completed repairs.
	RepairSeconds float64

	WakeFails  int
	WakeStalls int
}

// Availability is the fraction of demanded VM-seconds actually served,
// 1 - downtime/total, given the workload's total VM-seconds over the
// horizon.
func (s Stats) Availability(totalVMSeconds float64) float64 {
	if totalVMSeconds <= 0 {
		return 1
	}
	if s.DowntimeSeconds >= totalVMSeconds {
		return 0
	}
	return 1 - s.DowntimeSeconds/totalVMSeconds
}

// MeanRepair is the mean crash-to-recovery latency over completed repairs.
func (s Stats) MeanRepair() time.Duration {
	if s.Recoveries == 0 {
		return 0
	}
	return time.Duration(s.RepairSeconds / float64(s.Recoveries) * float64(time.Second))
}

// Injector drives the fault schedule on a simulation engine. It implements
// protocol.WakeGate via WakeOutcome.
type Injector struct {
	cfg     Config
	eng     *sim.Engine
	tgt     Target
	servers int
	horizon time.Duration

	master *rng.Source
	crash  map[int]*rng.Source
	wake   map[int]*rng.Source

	downAt      map[int]time.Duration // failed server -> crash time
	outstanding map[int]evacWindow    // evacuated VM -> open downtime window

	Stats Stats
}

// evacWindow is one evacuated VM's open downtime window: evicted at since,
// chargeable until it would have departed anyway.
type evacWindow struct {
	since time.Duration
	end   time.Duration
}

// New builds an injector over servers numbered [0, servers). The horizon
// bounds downtime accounting (Finish charges an open window only up to
// it). Streams split off seed, independent of any other consumer of the
// same seed.
func New(cfg Config, servers int, horizon time.Duration, seed uint64) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if servers <= 0 || horizon <= 0 {
		return nil, fmt.Errorf("faults: %d servers over %v", servers, horizon)
	}
	return &Injector{
		cfg:         cfg,
		servers:     servers,
		horizon:     horizon,
		master:      rng.New(seed).Split("faults"),
		crash:       make(map[int]*rng.Source),
		wake:        make(map[int]*rng.Source),
		downAt:      make(map[int]time.Duration),
		outstanding: make(map[int]evacWindow),
	}, nil
}

// Start arms the per-server crash clocks on the engine against the target.
// Call once, before the engine runs.
func (in *Injector) Start(eng *sim.Engine, tgt Target) {
	if eng == nil || tgt == nil {
		panic("faults: nil engine or target")
	}
	if in.eng != nil {
		panic("faults: Start called twice")
	}
	in.eng, in.tgt = eng, tgt
	if in.cfg.MTBF <= 0 {
		return
	}
	for id := 0; id < in.servers; id++ {
		in.scheduleCrash(id, in.drawExp(in.crashSrc(id), in.cfg.MTBF))
	}
}

func (in *Injector) crashSrc(id int) *rng.Source {
	s, ok := in.crash[id]
	if !ok {
		s = in.master.SplitIndex("crash", id)
		in.crash[id] = s
	}
	return s
}

func (in *Injector) wakeSrc(id int) *rng.Source {
	s, ok := in.wake[id]
	if !ok {
		s = in.master.SplitIndex("wake", id)
		in.wake[id] = s
	}
	return s
}

// drawExp draws an exponential duration with the given mean.
func (in *Injector) drawExp(src *rng.Source, mean time.Duration) time.Duration {
	return time.Duration(src.ExpFloat64() * float64(mean))
}

func (in *Injector) scheduleCrash(id int, after time.Duration) {
	in.eng.After(after, "fault:crash", func(*sim.Engine) { in.crashNow(id) })
}

// crashNow fails server id, sends its VMs back into placement, and
// schedules the repair. Crash and repair alternate strictly per server, so
// the target is never asked to crash an already-failed machine.
func (in *Injector) crashNow(id int) {
	now := in.eng.Now()
	evicted := in.tgt.CrashServer(id)
	in.Stats.Crashes++
	in.downAt[id] = now
	in.cfg.Obs.Count("faults.crashes", 1)
	if len(evicted) > in.Stats.MaxStorm {
		in.Stats.MaxStorm = len(evicted)
	}
	for _, vm := range evicted {
		in.Stats.VMsEvacuated++
		in.cfg.Obs.Count("faults.vms_evacuated", 1)
		if _, open := in.outstanding[vm.ID]; !open {
			in.outstanding[vm.ID] = evacWindow{since: now, end: vm.End}
		}
		in.tgt.ReplaceVM(vm)
	}
	repair := in.drawExp(in.crashSrc(id), in.cfg.MTTR)
	in.eng.After(repair, "fault:recover", func(*sim.Engine) {
		in.recoverNow(id)
	})
}

func (in *Injector) recoverNow(id int) {
	now := in.eng.Now()
	in.tgt.RecoverServer(id)
	in.Stats.Recoveries++
	in.Stats.RepairSeconds += (now - in.downAt[id]).Seconds()
	delete(in.downAt, id)
	in.cfg.Obs.Count("faults.recoveries", 1)
	in.scheduleCrash(id, in.drawExp(in.crashSrc(id), in.cfg.MTBF))
}

// OnPlaced closes an evacuated VM's downtime window. Wire it to the
// target's placement hook (protocol.Cluster.SetOnPlaced).
func (in *Injector) OnPlaced(vmID int, now time.Duration) {
	w, open := in.outstanding[vmID]
	if !open {
		return
	}
	delete(in.outstanding, vmID)
	in.Stats.Replaced++
	in.Stats.DowntimeSeconds += (now - w.since).Seconds()
	in.cfg.Obs.Observe("faults.replacement_downtime", now-w.since)
}

// WakeOutcome implements protocol.WakeGate: per-server streams decide
// whether a wake command is honored and how long the power-on stalls. The
// zero-probability guards keep the streams untouched when the feature is
// off, preserving draw sequences.
func (in *Injector) WakeOutcome(serverID int) (bool, time.Duration) {
	if in.cfg.WakeFailProb > 0 && in.wakeSrc(serverID).Bernoulli(in.cfg.WakeFailProb) {
		in.Stats.WakeFails++
		in.cfg.Obs.Count("faults.wake_failures", 1)
		return false, 0
	}
	if in.cfg.WakeDelayProb > 0 && in.wakeSrc(serverID).Bernoulli(in.cfg.WakeDelayProb) {
		in.Stats.WakeStalls++
		in.cfg.Obs.Count("faults.wake_stalls", 1)
		return true, in.drawExp(in.wakeSrc(serverID), in.cfg.WakeDelay)
	}
	return true, 0
}

// Finish closes the books at the horizon: evacuated VMs still waiting for a
// home accrue downtime up to their end-of-life or the horizon, whichever is
// earlier. Keys are sorted so the float accumulation order — and thus the
// reported total — is identical on every run.
func (in *Injector) Finish() {
	ids := make([]int, 0, len(in.outstanding))
	for id := range in.outstanding {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		w := in.outstanding[id]
		if until := min(w.end, in.horizon); until > w.since {
			in.Stats.DowntimeSeconds += (until - w.since).Seconds()
		}
	}
	in.outstanding = make(map[int]evacWindow)
}
