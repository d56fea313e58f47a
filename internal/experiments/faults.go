package experiments

import (
	"fmt"
	"time"

	"repro/internal/dc"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// FaultsOptions parameterizes the fault-injection study: the full
// distributed system of protocolday — arrivals, departures, migration, all
// on the wire — run on hardware that crashes, wake commands that fail or
// stall, and a fabric that drops and duplicates messages. The paper assumes
// perfect machinery; this experiment measures how the self-organizing
// algorithm degrades, sweeping a grid of MTBF x MTTR cells with the wake
// and network impairments held fixed.
type FaultsOptions struct {
	RunConfig
	Churn  trace.ChurnConfig
	Proto  protocol.Config
	Faults faults.Config

	// The sweep grid. Each (MTBF, MTTR) pair is one run (one figure row);
	// the other Faults fields apply to every cell.
	MTBFs []time.Duration
	MTTRs []time.Duration
}

// DefaultFaultsOptions runs 100 six-core servers for 12 hours per grid
// cell, from hostile (a crash every 2 h per server) to merely unreliable
// (one per day), with 1% message loss and flaky wake-ups throughout.
func DefaultFaultsOptions() FaultsOptions {
	churn := trace.DefaultChurnConfig()
	churn.Horizon = 12 * time.Hour
	proto := protocol.DefaultConfig()
	proto.EnableMigration = true
	proto.Impairments = netsim.Impairments{DropProb: 0.01, DupProb: 0.005}
	proto.RoundTimeout = 10 * time.Millisecond
	proto.AssignRetry = 30 * time.Second
	proto.MigTimeout = 5 * time.Minute
	return FaultsOptions{
		RunConfig: RunConfig{Servers: 100, NumVMs: churn.InitialVMs, Horizon: churn.Horizon, Seed: 1},
		Churn:     churn,
		Proto:     proto,
		Faults:    faults.DefaultConfig(),
		MTBFs:     []time.Duration{2 * time.Hour, 6 * time.Hour, 24 * time.Hour},
		MTTRs:     []time.Duration{10 * time.Minute, 30 * time.Minute},
	}
}

// faultCell is one grid cell's outcome.
type faultCell struct {
	MTBF, MTTR time.Duration
	Inj        faults.Stats
	Proto      protocol.Stats
	Active     int
	Failed     int
	Avail      float64
}

// Faults runs the sweep and reports availability, recovery latency and the
// re-placement storms each cell produced.
func Faults(opts FaultsOptions) (*Figure, error) {
	opts.Churn.InitialVMs = opts.NumVMs
	opts.Churn.Horizon = opts.Horizon
	opts.Proto.Obs = opts.Obs
	opts.Proto.Workers = opts.Workers
	opts.Faults.Obs = opts.Obs
	if len(opts.MTBFs) == 0 || len(opts.MTTRs) == 0 {
		return nil, fmt.Errorf("experiments: faults sweep needs MTBFs and MTTRs")
	}
	f := &Figure{
		ID:    "faults",
		Title: "Graceful degradation under crashes, wake failures and message loss",
		Columns: []string{
			"mtbf_h", "mttr_min", "crashes", "recoveries",
			"vms_evacuated", "max_storm", "replacements",
			"wake_failures", "wake_stalls", "assigns_lost", "migrations_expired",
			"availability", "mean_repair_s", "downtime_vm_s",
			"final_active", "final_failed",
		},
	}
	worst := 1.0
	var worstCell faultCell
	for _, mtbf := range opts.MTBFs {
		for _, mttr := range opts.MTTRs {
			fcfg := opts.Faults
			fcfg.MTBF, fcfg.MTTR = mtbf, mttr
			cell, err := runFaultCell(opts, fcfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: faults cell MTBF=%v MTTR=%v: %v", mtbf, mttr, err)
			}
			f.Add(
				mtbf.Hours(), mttr.Minutes(),
				float64(cell.Inj.Crashes), float64(cell.Inj.Recoveries),
				float64(cell.Inj.VMsEvacuated), float64(cell.Inj.MaxStorm),
				float64(cell.Inj.Replaced),
				float64(cell.Inj.WakeFails), float64(cell.Inj.WakeStalls),
				float64(cell.Proto.AssignsLost), float64(cell.Proto.MigrationsExpired),
				cell.Avail, cell.Inj.MeanRepair().Seconds(), cell.Inj.DowntimeSeconds,
				float64(cell.Active), float64(cell.Failed),
			)
			if cell.Avail < worst {
				worst, worstCell = cell.Avail, cell
			}
		}
	}
	f.Notef("every cell completed and passed the runtime audit: degradation is graceful, not catastrophic")
	f.Notef("worst cell (MTBF=%v, MTTR=%v): availability %.4f, %d crashes evacuated %d VMs (largest storm %d), mean repair %v",
		worstCell.MTBF, worstCell.MTTR, worst, worstCell.Inj.Crashes,
		worstCell.Inj.VMsEvacuated, worstCell.Inj.MaxStorm, worstCell.Inj.MeanRepair().Round(time.Second))
	f.Notef("wake gate over all cells: failures and stalls are absorbed by assign retries (lossy fabric: %.1f%% drop, %.1f%% dup)",
		100*opts.Proto.Impairments.DropProb, 100*opts.Proto.Impairments.DupProb)
	return f, nil
}

// runFaultCell runs one (MTBF, MTTR) cell end to end.
func runFaultCell(opts FaultsOptions, fcfg faults.Config) (faultCell, error) {
	ws, err := trace.GenerateChurn(opts.Churn, opts.Seed)
	if err != nil {
		return faultCell{}, err
	}
	c, err := protocol.New(opts.Proto, dc.UniformFleet(opts.Servers, 6, 2000), opts.Seed+1)
	if err != nil {
		return faultCell{}, err
	}
	defer c.Close()
	inj, err := faults.New(fcfg, opts.Servers, opts.Churn.Horizon, opts.Seed+2)
	if err != nil {
		return faultCell{}, err
	}
	c.SetWakeGate(inj)
	c.SetOnPlaced(inj.OnPlaced)
	inj.Start(c.Engine(), c)
	// Graceful degradation is a claim about state, not just survival: the
	// wreckage must still satisfy every structural (RunDay checks them) and
	// runtime invariant.
	if err := c.RunDay(ws, opts.Churn.Horizon); err != nil {
		return faultCell{}, fmt.Errorf("post-run invariants: %v", err)
	}
	inj.Finish()
	if err := c.DC().CheckRuntime(opts.Churn.Horizon); err != nil {
		return faultCell{}, fmt.Errorf("post-run runtime audit: %v", err)
	}
	total := 0.0
	for _, vm := range ws.VMs {
		if end := min(vm.End, opts.Churn.Horizon); end > vm.Start {
			total += (end - vm.Start).Seconds()
		}
	}
	return faultCell{
		MTBF:   fcfg.MTBF,
		MTTR:   fcfg.MTTR,
		Inj:    inj.Stats,
		Proto:  c.Stats,
		Active: c.DC().ActiveCount(),
		Failed: c.DC().FailedCount(),
		Avail:  inj.Stats.Availability(total),
	}, nil
}
