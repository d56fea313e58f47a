package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dc"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Protocol-day size: a 20-server fleet over 4 hours of churn.
const (
	protoServers = 20
	protoVMs     = 200
	protoHorizon = 4 * time.Hour
)

// protocolDay is the protocolday experiment: arrivals, departures and the
// migration procedure all as messages on the simulated netsim fabric.
type protocolDay struct {
	opts experiments.ProtocolDayOptions
	ws   *trace.Set
	ref  dayResult
}

// dayResult is everything the protocolday figure reports.
type dayResult struct {
	stats       protocol.Stats
	messages    int
	bytes       int64
	finalActive int
	cache       dc.DemandCacheStats
}

func (p *protocolDay) setUp(seed uint64) error {
	opts := experiments.DefaultProtocolDayOptions()
	opts.Servers, opts.NumVMs, opts.Horizon, opts.Seed = protoServers, protoVMs, protoHorizon, seed
	opts.Churn.InitialVMs, opts.Churn.Horizon = opts.NumVMs, opts.Horizon
	ws, err := trace.GenerateChurn(opts.Churn, seed)
	if err != nil {
		return err
	}
	p.opts, p.ws = opts, ws
	return nil
}

// day drives one protocol day exactly as experiments.ProtocolDay does.
func (p *protocolDay) day(rec *obs.Recorder, workers int) (dayResult, error) {
	cfg := p.opts.Proto
	cfg.Obs, cfg.Workers = rec, workers
	c, err := protocol.New(cfg, dc.UniformFleet(p.opts.Servers, 6, 2000), p.opts.Seed+1)
	if err != nil {
		return dayResult{}, err
	}
	defer c.Close()
	var departErr error
	for _, vm := range p.ws.VMs {
		vm := vm
		c.Engine().Schedule(vm.Start, "arrival", func(*sim.Engine) { c.PlaceVM(vm) })
		if vm.End < p.opts.Churn.Horizon {
			c.Engine().Schedule(vm.End, "departure", func(*sim.Engine) {
				if _, ok := c.DC().HostOf(vm.ID); ok {
					if _, err := c.DC().Remove(vm.ID); err != nil && departErr == nil {
						departErr = err
					}
				}
			})
		}
	}
	c.StartMigrationScan()
	c.Engine().Run(p.opts.Churn.Horizon)
	if departErr != nil {
		return dayResult{}, departErr
	}
	if err := c.DC().CheckInvariants(); err != nil {
		return dayResult{}, err
	}
	return dayResult{
		stats:       c.Stats,
		messages:    c.MessagesSent(),
		bytes:       c.BytesSent(),
		finalActive: c.DC().ActiveCount(),
		cache:       c.DC().DemandCacheStats(),
	}, nil
}

func (p *protocolDay) check() error {
	var err error
	if p.ref, err = p.day(nil, 0); err != nil {
		return err
	}
	// Every VM that arrives inside the day is placed exactly once.
	arrivals := 0
	for _, vm := range p.ws.VMs {
		if vm.Start <= p.opts.Horizon {
			arrivals++
		}
	}
	if p.ref.stats.Placements != arrivals {
		return fmt.Errorf("%d placements for %d arrivals", p.ref.stats.Placements, arrivals)
	}
	// The program's own experiment on the same inputs must report the
	// same day.
	fig, err := experiments.ProtocolDay(p.opts)
	if err != nil {
		return err
	}
	s := p.ref.stats
	for _, c := range []struct {
		col  string
		want float64
	}{
		{"placements", float64(s.Placements)},
		{"migrations_low", float64(s.MigrationsLow)},
		{"migrations_high", float64(s.MigrationsHigh)},
		{"migrations_aborted", float64(s.MigrationsAborted)},
		{"wakes", float64(s.Wakes)},
		{"saturations", float64(s.Saturations)},
		{"messages", float64(p.ref.messages)},
		{"megabytes", float64(p.ref.bytes) / (1 << 20)},
		{"final_active", float64(p.ref.finalActive)},
	} {
		//ecolint:allow float-eq — the experiment and the harness run the same day, so its figure must match bit for bit
		if got := fig.Column(c.col)[0]; got != c.want {
			return fmt.Errorf("protocolday %s = %v, harness run %v", c.col, got, c.want)
		}
	}
	// The sharded scan decision phase must not change the day.
	pooled, err := p.day(nil, 1)
	if err != nil {
		return err
	}
	if err := sameDay(p.ref, pooled, true); err != nil {
		return fmt.Errorf("pooled scan: %w", err)
	}
	return nil
}

// sameDay compares two days; ignoreCache skips the demand-kernel counters.
func sameDay(want, got dayResult, ignoreCache bool) error {
	if ignoreCache {
		want.cache, got.cache = dc.DemandCacheStats{}, dc.DemandCacheStats{}
	}
	if want != got {
		return fmt.Errorf("day differs: %+v vs %+v", want, got)
	}
	return nil
}

func (p *protocolDay) run(lay layers) (runStats, error) {
	var rec *obs.Recorder
	if lay != nil {
		rec = obs.NewRecorder(nil, nil)
	}
	var res dayResult
	st, err := inProcess(lay, func() (err error) {
		res, err = p.day(rec, 0)
		return err
	})
	if err != nil {
		return st, err
	}
	if err := sameDay(p.ref, res, false); err != nil {
		return st, err
	}
	if lay == nil {
		return st, nil
	}
	snap := rec.Snapshot()
	var handlers, departure time.Duration
	for name, t := range snap.Timers {
		kind, ok := strings.CutPrefix(name, "sim.handler.")
		if !ok {
			continue
		}
		handlers += time.Duration(t.TotalNS)
		if kind == "departure" {
			departure += time.Duration(t.TotalNS)
		}
	}
	lay.share("protocol_pct", handlers-departure, st.wall)
	lay.share("departure_pct", departure, st.wall)
	lay.share("engine_pct", st.wall-handlers, st.wall)
	lay.add("sim_events", float64(snap.Counters["sim.events"]))
	lay.add("placements", float64(res.stats.Placements))
	lay.add("migrations", float64(res.stats.MigrationsLow+res.stats.MigrationsHigh))
	lay.add("activations", float64(res.stats.Wakes))
	lay.add("demand_cache_hits", float64(res.cache.Hits))
	lay.add("demand_cache_misses", float64(res.cache.Misses))
	lay.add("messages", float64(res.messages))
	lay.add("traffic_mb", float64(res.bytes)/(1<<20))
	return st, nil
}
