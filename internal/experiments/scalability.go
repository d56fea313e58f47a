package experiments

import (
	"fmt"
	"time"

	"repro/internal/dc"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ScalabilityOptions parameterizes the protocol-level scalability study.
// The paper claims ecoCloud is "particularly efficient in large data
// centers" and sketches (footnote 1) how very large fleets can invite one
// server group instead of broadcasting; this experiment measures exactly
// that: wire messages, bytes and placement latency per assignment as the
// fleet grows, under the §II broadcast protocol, group invitations, random
// subsets, and the silent-reject variant.
// ScalabilityOptions embeds RunConfig for the shared knobs; the sweep runs
// over FleetSizes, so a non-zero RunConfig.Servers replaces the sweep with a
// single fleet of that size. NumVMs and Horizon are unused (the study places
// a fixed number of probe VMs, not a day-long population).
type ScalabilityOptions struct {
	RunConfig

	FleetSizes []int
	Placements int // placements measured per configuration

	// Preload fraction of servers active, each at PreloadUtil, before
	// measuring (a data center in normal operation, not a cold start).
	PreloadFrac float64
	PreloadUtil float64

	Groups int // InviteGroups of the groups variant
	Subset int // InviteSubset of the subset variant

	DemandMHz float64 // per placed VM
}

// DefaultScalabilityOptions measures fleets from 50 to 800 servers.
func DefaultScalabilityOptions() ScalabilityOptions {
	return ScalabilityOptions{
		RunConfig:   RunConfig{Seed: 1},
		FleetSizes:  []int{50, 100, 200, 400, 800},
		Placements:  300,
		PreloadFrac: 0.5,
		PreloadUtil: 0.65,
		Groups:      8,
		Subset:      32,
		DemandMHz:   300,
	}
}

// ScalabilityPoint is one (fleet size, variant) measurement.
type ScalabilityPoint struct {
	Servers int
	Variant string

	MsgsPerPlacement  float64
	BytesPerPlacement float64
	MeanLatency       time.Duration
	MaxLatency        time.Duration
	Wakes             int
	Saturations       int
}

// Scalability runs the study and returns one point per (fleet, variant).
func Scalability(opts ScalabilityOptions) ([]ScalabilityPoint, error) {
	if opts.Servers > 0 {
		opts.FleetSizes = []int{opts.Servers}
	}
	if opts.Placements <= 0 || len(opts.FleetSizes) == 0 {
		return nil, fmt.Errorf("experiments: scalability needs fleets and placements")
	}
	variants := []struct {
		name   string
		mutate func(*protocol.Config)
	}{
		{"broadcast", func(*protocol.Config) {}},
		{"groups", func(c *protocol.Config) { c.InviteGroups = opts.Groups }},
		{"subset", func(c *protocol.Config) { c.InviteSubset = opts.Subset }},
		{"silent-reject", func(c *protocol.Config) { c.SilentReject = true }},
	}

	type cell struct {
		ns      int
		variant int
	}
	var grid []cell
	for _, ns := range opts.FleetSizes {
		for vi := range variants {
			grid = append(grid, cell{ns: ns, variant: vi})
		}
	}
	out := make([]ScalabilityPoint, len(grid))
	err := forEach(len(grid), func(i int) error {
		v := variants[grid[i].variant]
		cfg := protocol.DefaultConfig()
		cfg.Workers = opts.Workers
		v.mutate(&cfg)
		p, err := runScalabilityPoint(cfg, grid[i].ns, opts)
		if err != nil {
			return fmt.Errorf("experiments: scalability %s/%d: %v", v.name, grid[i].ns, err)
		}
		p.Variant = v.name
		out[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runScalabilityPoint measures one configuration.
func runScalabilityPoint(cfg protocol.Config, ns int, opts ScalabilityOptions) (ScalabilityPoint, error) {
	c, err := protocol.New(cfg, dc.StandardFleet(ns), opts.Seed)
	if err != nil {
		return ScalabilityPoint{}, err
	}
	defer c.Close()
	// Preload: a running data center, servers out of their grace period.
	preload := int(float64(ns) * opts.PreloadFrac)
	id := 1_000_000
	for i := 0; i < preload; i++ {
		s := c.DC().Servers[i]
		if err := c.DC().Activate(s, 0); err != nil {
			return ScalabilityPoint{}, err
		}
		s.SetActivatedAt(-1000 * time.Hour)
		vm := &trace.VM{
			ID: id, Start: 0, End: 1000 * time.Hour, Epoch: 1000 * time.Hour,
			Demand: []float64{opts.PreloadUtil * s.CapacityMHz()},
		}
		if err := c.DC().Place(vm, s); err != nil {
			return ScalabilityPoint{}, err
		}
		id++
	}

	// Arrivals spaced widely enough that rounds rarely overlap: the study
	// measures protocol cost, not queueing.
	gap := rng.New(opts.Seed).Split("gaps")
	at := time.Duration(0)
	baseMsgs := c.MessagesSent()
	baseBytes := c.BytesSent()
	for i := 0; i < opts.Placements; i++ {
		at += time.Duration((0.5 + gap.Float64()) * float64(100*time.Millisecond))
		vm := &trace.VM{
			ID: i, Start: at, End: 1000 * time.Hour, Epoch: 1000 * time.Hour,
			Demand: []float64{opts.DemandMHz},
		}
		c.Engine().Schedule(at, "arrival", func(*sim.Engine) { c.PlaceVM(vm) })
	}
	c.Engine().Run(0)

	if c.Stats.Placements != opts.Placements {
		return ScalabilityPoint{}, fmt.Errorf("placed %d of %d", c.Stats.Placements, opts.Placements)
	}
	n := float64(opts.Placements)
	return ScalabilityPoint{
		Servers:           ns,
		MsgsPerPlacement:  float64(c.MessagesSent()-baseMsgs) / n,
		BytesPerPlacement: float64(c.BytesSent()-baseBytes) / n,
		MeanLatency:       c.Stats.MeanLatency(),
		MaxLatency:        c.Stats.MaxLatency,
		Wakes:             c.Stats.Wakes,
		Saturations:       c.Stats.Saturations,
	}, nil
}

// ScalabilityFigure materializes the study as a table; variant_idx encodes
// 0=broadcast, 1=groups, 2=subset, 3=silent-reject.
func ScalabilityFigure(points []ScalabilityPoint) *Figure {
	f := &Figure{
		ID:    "scalability",
		Title: "Protocol cost per placement vs fleet size (footnote 1 study)",
		Columns: []string{
			"servers", "variant_idx", "msgs_per_placement",
			"bytes_per_placement", "mean_latency_us", "max_latency_us",
			"wakes", "saturations",
		},
	}
	idx := map[string]float64{"broadcast": 0, "groups": 1, "subset": 2, "silent-reject": 3}
	for _, p := range points {
		f.Add(float64(p.Servers), idx[p.Variant], p.MsgsPerPlacement,
			p.BytesPerPlacement,
			float64(p.MeanLatency.Microseconds()), float64(p.MaxLatency.Microseconds()),
			float64(p.Wakes), float64(p.Saturations))
		f.Notef("%s @ %d servers: %.1f msgs, %.0f bytes, %v mean latency per placement",
			p.Variant, p.Servers, p.MsgsPerPlacement, p.BytesPerPlacement, p.MeanLatency)
	}
	return f
}
