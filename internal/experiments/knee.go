package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/rng"
	"repro/internal/trace"
)

// KneeOptions parameterizes the overload-knee sweep: for each fleet size
// and policy, a stepped churn-rate ramp climbs until the stop-rule fires,
// and the knee — the maximum sustainable VM churn rate — is reported.
// RunConfig.Horizon is the simulated time of one slot. RunConfig.Servers
// and NumVMs are unused: FleetSizes and each slot's steady-state
// population replace them.
type KneeOptions struct {
	RunConfig

	// FleetSizes are the sweep's fleet sizes; each uses a uniform fleet of
	// Cores x CoreMHz servers.
	FleetSizes []int
	Cores      int
	CoreMHz    float64

	// StartPerServerHour and StepPerServerHour define the rate ladder in
	// per-server terms, so the same ladder stresses every fleet size
	// proportionally; absolute slot rates are these times the fleet size.
	StartPerServerHour float64
	StepPerServerHour  float64
	MaxSlots           int
	// WarmupFrac is the fraction of each slot excluded from measurement,
	// so a slot's verdict reflects its steady state, not its transient.
	WarmupFrac float64
	// Threshold and Tolerance form the stop-rule: a slot breaches when its
	// violation or rejection fraction exceeds Threshold, and the ramp halts
	// once more than Tolerance slots have breached. Under persistent
	// overload that is exactly Tolerance slots after the first breach.
	Threshold float64
	Tolerance int

	Eco      ecocloud.Config
	Baseline baseline.Config
	Power    dc.PowerModel
	Control  time.Duration
	Sample   time.Duration
}

// DefaultKneeOptions sweeps 50- and 100-server fleets of the Fig. 12 server
// class for ecoCloud and BFD. The ladder starts well inside sustainable
// territory (~10 arrivals/server/h with 90-minute lifetimes is ~15 resident
// VMs/server, ~3.6 of 12 GHz demanded) and steps toward saturation
// (capacity exhausts near 33 arrivals/server/h).
func DefaultKneeOptions() KneeOptions {
	return KneeOptions{
		RunConfig:          RunConfig{Horizon: 2 * time.Hour, Seed: 1},
		FleetSizes:         []int{50, 100},
		Cores:              6,
		CoreMHz:            2000,
		StartPerServerHour: 10,
		StepPerServerHour:  4,
		MaxSlots:           12,
		WarmupFrac:         0.5,
		Threshold:          0.05,
		Tolerance:          2,
		Eco:                ecocloud.DefaultConfig(),
		Baseline:           baseline.DefaultConfig(),
		Power:              dc.DefaultPowerModel(),
		Control:            5 * time.Minute,
		Sample:             30 * time.Minute,
	}
}

// validate rejects options no ladder can run, before any slot starts.
func (o KneeOptions) validate() error {
	switch {
	case len(o.FleetSizes) == 0:
		return fmt.Errorf("no fleet sizes")
	case o.StartPerServerHour <= 0:
		return fmt.Errorf("StartPerServerHour = %v", o.StartPerServerHour)
	case o.StepPerServerHour < 0:
		return fmt.Errorf("StepPerServerHour = %v", o.StepPerServerHour)
	case o.Horizon <= 0:
		return fmt.Errorf("slot horizon = %v", o.Horizon)
	case o.MaxSlots <= 0:
		return fmt.Errorf("MaxSlots = %d", o.MaxSlots)
	case o.WarmupFrac < 0 || o.WarmupFrac >= 1:
		return fmt.Errorf("WarmupFrac = %v (want [0,1))", o.WarmupFrac)
	case o.Threshold <= 0 || o.Threshold >= 1:
		return fmt.Errorf("Threshold = %v (want (0,1))", o.Threshold)
	case o.Tolerance < 0:
		return fmt.Errorf("Tolerance = %d", o.Tolerance)
	}
	for _, n := range o.FleetSizes {
		if n <= 0 {
			return fmt.Errorf("fleet size %d", n)
		}
	}
	return nil
}

// kneeSlot is one executed rung of a cell's ladder, measured after the
// slot's warm-up.
type kneeSlot struct {
	Index       int
	RatePerHour float64
	// ViolationFrac is the fraction of VM-time spent on overloaded servers.
	ViolationFrac float64
	// RejectFrac is the fraction of placements the policy could satisfy
	// only by overcommitting (saturations over all VMs placed): every VM is
	// still placed, so this is degraded service, not lost arrivals.
	RejectFrac        float64
	MeanActiveServers float64
	EnergyKWh         float64
	// Arrivals counts the VMs that arrived during the slot, the preloaded
	// population excluded.
	Arrivals int
	Breach   bool
}

// slotRunner runs one slot at rate arrivals per hour from seed and returns
// its measured fields. clusterSlot is the real one; the stop-rule tests
// script their own.
type slotRunner func(rate float64, seed uint64) (kneeSlot, error)

// KneeCell is one (fleet size, policy) ramp.
type KneeCell struct {
	Servers int
	Policy  string
	// KneePerHour is the highest rate that ran without breaching, zero when
	// even the first slot breached; KneePerServerHour normalizes it by the
	// fleet size.
	KneePerHour       float64
	KneePerServerHour float64
	// Halted reports that the stop-rule fired. False means MaxSlots ran
	// out first, so the knee is a lower bound.
	Halted bool
	Slots  []kneeSlot
}

// KneeResult holds the sweep in (fleet, policy) order.
type KneeResult struct {
	Cells []KneeCell
}

// Knee runs the sweep. Cells are independent ramps over disjoint rng
// streams, so they execute concurrently; within a cell the slots run
// sequentially because each verdict gates the next rung.
func Knee(opts KneeOptions) (*KneeResult, error) {
	if err := opts.validate(); err != nil {
		return nil, fmt.Errorf("experiments: knee: %w", err)
	}
	bcfg := opts.Baseline
	bcfg.Power = opts.Power
	type policyDef struct {
		name string
		make func(seed uint64) (cluster.Policy, error)
	}
	policies := []policyDef{
		{"ecocloud", func(seed uint64) (cluster.Policy, error) { return ecocloud.New(opts.Eco, seed) }},
		{"bfd", func(seed uint64) (cluster.Policy, error) { return baseline.NewBFD(bcfg) }},
	}

	type cellDef struct {
		servers int
		policy  policyDef
	}
	var cells []cellDef
	for _, n := range opts.FleetSizes {
		for _, p := range policies {
			cells = append(cells, cellDef{servers: n, policy: p})
		}
	}

	// Per-cell seeds from an indexed split of the master: cells stay
	// independent replications however the grid is arranged.
	seeds := rng.New(opts.Seed)
	cellSeeds := make([]uint64, len(cells))
	for i := range cells {
		cellSeeds[i] = seeds.SplitIndex("cell", i).Uint64()
	}

	results := make([]KneeCell, len(cells))
	err := forEach(len(cells), func(i int) error {
		c := cells[i]
		cell, err := opts.ramp(c.servers, cellSeeds[i], opts.clusterSlot(c.servers, c.policy.make))
		if err != nil {
			return fmt.Errorf("experiments: knee %d servers / %s: %w", c.servers, c.policy.name, err)
		}
		cell.Policy = c.policy.name
		results[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &KneeResult{Cells: results}, nil
}

// ramp climbs one cell's ladder: slot k runs at Start + k·Step per server
// hour, from the k-th "slot" split of the cell seed, so inserting or
// removing rungs never shifts another slot's stream. It stops once more
// than Tolerance slots have breached, or after MaxSlots.
func (o KneeOptions) ramp(servers int, seed uint64, run slotRunner) (KneeCell, error) {
	start := o.StartPerServerHour * float64(servers)
	step := o.StepPerServerHour * float64(servers)
	seeds := rng.New(seed)
	cell := KneeCell{Servers: servers}
	breaches := 0
	for k := 0; k < o.MaxSlots; k++ {
		rate := start + float64(k)*step
		s, err := run(rate, seeds.SplitIndex("slot", k).Uint64())
		if err != nil {
			return KneeCell{}, fmt.Errorf("slot %d (rate %.1f/h): %w", k, rate, err)
		}
		s.Index, s.RatePerHour = k, rate
		s.Breach = s.ViolationFrac > o.Threshold || s.RejectFrac > o.Threshold
		cell.Slots = append(cell.Slots, s)
		if s.Breach {
			breaches++
			if breaches > o.Tolerance {
				cell.Halted = true
				break
			}
		} else {
			cell.KneePerHour = rate
		}
	}
	cell.KneePerServerHour = cell.KneePerHour / float64(servers)
	return cell, nil
}

// clusterSlot runs each slot through cluster.Run on a fresh fleet of the
// given size with a fresh policy, so no state leaks across rungs. The
// workload is the churn generator at a constant rate, preloaded with its
// steady-state population rate·E[lifetime], so the warm-up only absorbs the
// residual transient; ticks before WarmupFrac of the slot stay out of the
// aggregates (cluster.RunConfig.MeasureFrom).
func (o KneeOptions) clusterSlot(servers int, newPolicy func(seed uint64) (cluster.Policy, error)) slotRunner {
	specs := dc.UniformFleet(servers, o.Cores, o.CoreMHz)
	return func(rate float64, seed uint64) (kneeSlot, error) {
		churn := trace.DefaultChurnConfig()
		churn.Horizon = o.Horizon
		churn.ArrivalPerHour = rate
		churn.InitialVMs = int(rate * churn.MeanLifetime.Hours())
		churn.DailyAmplitude = 0
		churn.RefCapacityMHz = o.CoreMHz * float64(o.Cores)
		ws, err := trace.GenerateChurn(churn, seed)
		if err != nil {
			return kneeSlot{}, err
		}
		pol, err := newPolicy(seed)
		if err != nil {
			return kneeSlot{}, err
		}
		cfg := o.ClusterConfig(specs, ws, o.Control, o.Sample, o.Power)
		cfg.MeasureFrom = time.Duration(o.WarmupFrac * float64(o.Horizon))
		res, err := cluster.Run(cfg, pol)
		if err != nil {
			return kneeSlot{}, err
		}
		arrivals := 0
		for _, vm := range ws.VMs {
			if vm.Start > 0 {
				arrivals++
			}
		}
		// Every VM, preloaded or arriving, passes through the policy's
		// assignment procedure, so saturations are normalized by all of them.
		return kneeSlot{
			ViolationFrac:     res.VMOverloadTimeFrac,
			RejectFrac:        float64(res.Saturations) / float64(len(ws.VMs)),
			MeanActiveServers: res.MeanActiveServers,
			EnergyKWh:         res.EnergyKWh,
			Arrivals:          arrivals,
		}, nil
	}
}

// Figure materializes the knee table: one row per ramp slot, so the CSV
// carries the whole overload curve, not just its knee.
func (k *KneeResult) Figure() *Figure {
	f := &Figure{
		ID:    "knee",
		Title: "max sustainable VM churn rate vs fleet size (stepped ramp, overload stop-rule)",
		Columns: []string{
			"fleet_size", "policy_idx", "slot", "rate_per_hour", "rate_per_server_hour",
			"violation_frac", "reject_frac", "mean_active_servers", "energy_kwh",
			"arrivals", "breach",
		},
	}
	for _, c := range k.Cells {
		pidx := 0.0
		if c.Policy == "bfd" {
			pidx = 1
		}
		for _, s := range c.Slots {
			breach := 0.0
			if s.Breach {
				breach = 1
			}
			f.Add(float64(c.Servers), pidx, float64(s.Index), s.RatePerHour,
				s.RatePerHour/float64(c.Servers),
				s.ViolationFrac, s.RejectFrac,
				s.MeanActiveServers, s.EnergyKWh,
				float64(s.Arrivals), breach)
		}
		state := "stop-rule halted"
		if !c.Halted {
			state = "ladder exhausted (knee is a lower bound)"
		}
		f.Notef("%d servers / %s: knee %.0f VMs/h (%.1f per server-hour) after %d slots, %s",
			c.Servers, c.Policy, c.KneePerHour, c.KneePerServerHour, len(c.Slots), state)
	}
	return f
}
