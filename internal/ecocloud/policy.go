package ecocloud

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Policy is the ecoCloud consolidation algorithm (assignment + migration
// procedures) in the shape the cluster driver runs: every decision goes
// through the Core, and Policy keeps only the sequencing of the control
// round. It is not safe for concurrent use; the driver invokes callbacks
// sequentially.
type Policy struct {
	core Core

	// mgr is the data-center manager's stream: choosing among available
	// servers, picking which hibernated server to wake, sampling invitation
	// subsets.
	mgr *rng.Source
	// servers holds one independent stream per server, so Bernoulli draws
	// do not depend on iteration (or goroutine) order.
	servers Streams
	master  *rng.Source

	// nextGroup is Core.Invitees' group cursor: which static server group
	// receives the next invitation when InviteGroups is enabled.
	nextGroup int

	// Invitation-round scratch, reused by every selectDestination call so
	// arrivals and migration attempts do not allocate, and migrate's copy
	// of the source's VMs.
	invited, accepted, sleeping []*dc.Server
	vms                         []*trace.VM
}

var _ cluster.Policy = (*Policy)(nil)

// New builds an ecoCloud policy from a validated configuration and a seed.
func New(cfg Config, seed uint64) (*Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	core, err := NewCore(cfg)
	if err != nil {
		return nil, err
	}
	master := rng.New(seed)
	return &Policy{
		core:    core,
		mgr:     master.Split("manager"),
		servers: NewStreams(master, 0),
		master:  master,
	}, nil
}

// Name implements cluster.Policy.
func (p *Policy) Name() string { return "ecocloud" }

// Config returns the policy's configuration.
func (p *Policy) Config() Config { return p.core.Config }

// serverSrc returns server id's private stream, creating it on first use.
func (p *Policy) serverSrc(id int) *rng.Source { return p.servers.Get(id) }

// inGrace reports whether active server s is inside its post-activation
// grace period at time now.
func (p *Policy) inGrace(s *dc.Server, now time.Duration) bool {
	return p.core.InGrace(now, s.ActivatedAt())
}

// OnArrival implements the assignment procedure (§II): the manager invites
// the active servers; each runs a Bernoulli trial on fa of its local
// utilization; the manager assigns the VM to one of the available servers
// uniformly at random; if none is available it wakes a hibernated server.
func (p *Policy) OnArrival(env cluster.Env, vm *trace.VM) {
	dest := p.selectDestination(env, p.core.Ta, -1, true, vm.DemandAt(env.Now), vm.RAMMB)
	if dest == nil {
		// Total saturation: every server active and none accepting. The VM
		// still has to run somewhere; degrade gracefully onto the least
		// utilized active server and record the event (the paper: frequent
		// occurrences mean the company should buy servers).
		env.Rec.Saturations++
		i, _ := LeastUtilized(env.DC.Servers, env.Now)
		if i < 0 {
			// No active server at all and nothing to wake: the fleet is
			// empty, which indicates a mis-sized experiment.
			panic(fmt.Sprintf("ecocloud: no server available for VM %d in an empty fleet", vm.ID))
		}
		dest = env.DC.Servers[i]
	}
	if err := env.DC.Place(vm, dest); err != nil {
		panic(fmt.Sprintf("ecocloud: placing VM %d: %v", vm.ID, err))
	}
}

// OnControl implements the periodic monitoring step: hibernate drained
// servers, then run the migration procedure on each active server. Both
// walks read the live active set in ID order, so a server that a high
// migration wakes above the cursor is scanned in the same pass.
func (p *Policy) OnControl(env cluster.Env) {
	d := env.DC
	// Hibernate empty active servers whose grace has expired.
	for id := d.NextActive(0); id >= 0; id = d.NextActive(id + 1) {
		if s := d.Servers[id]; s.NumVMs() == 0 && !p.inGrace(s, env.Now) {
			if err := d.Hibernate(s); err != nil {
				panic(fmt.Sprintf("ecocloud: hibernating empty server %d: %v", s.ID, err))
			}
		}
	}
	if p.core.DisableMigration {
		return
	}
	for id := d.NextActive(0); id >= 0; id = d.NextActive(id + 1) {
		s := d.Servers[id]
		if s.NumVMs() == 0 {
			continue
		}
		u := s.UtilizationAt(env.Now)
		if act := p.core.Scan(p.serverSrc(id), s.NumVMs(), u, env.Now, s.ActivatedAt()); act == ScanLow || act == ScanHigh {
			p.migrate(env, s, u, act == ScanHigh)
		}
	}
}

// migrate relocates one VM off server s once its scan trial fired
// (Core.MigrationVM picks which). A low migration never wakes a server:
// activating one machine to hibernate another is a net loss (§II), so if
// nobody accepts, the VM stays. A high migration invites under the
// tightened Ta' (Core.HighMigTa), so the VM provably lands on a less-loaded
// server (no ping-pong), and may wake a hibernated server: relieving
// overload justifies the power.
func (p *Policy) migrate(env cluster.Env, s *dc.Server, u float64, high bool) {
	p.vms = s.AppendVMs(p.vms[:0])
	vm := p.core.MigrationVM(p.serverSrc(s.ID), p.vms, env.Now, u, s.CapacityMHz(), high)
	if vm == nil {
		return
	}
	ta, kind := p.core.Ta, cluster.MigrationLow
	if high {
		ta, kind = p.core.HighMigTa(u), cluster.MigrationHigh
	}
	dest := p.selectDestination(env, ta, s.ID, high, vm.DemandAt(env.Now), vm.RAMMB)
	if dest == nil {
		return
	}
	if err := env.DC.Migrate(vm.ID, dest); err != nil {
		panic(fmt.Sprintf("ecocloud: %s migration of VM %d: %v", kind, vm.ID, err))
	}
	env.Rec.Migration(env.Now, kind)
	if high {
		return
	}
	// A server emptied by its last migration hibernates right away.
	if s.NumVMs() == 0 && !p.inGrace(s, env.Now) {
		if err := env.DC.Hibernate(s); err != nil {
			panic(fmt.Sprintf("ecocloud: hibernating drained server %d: %v", s.ID, err))
		}
	}
}

// selectDestination runs one invitation round under the acceptance
// threshold ta: Core.Invitees picks the invited active servers (never
// exclude), each runs its accept trial, and the manager picks uniformly
// among the accepting ones. With no acceptor and allowWake set, a
// hibernated server is woken and returned (its grace period starts now).
// Returns nil when no destination exists.
//
// The invitation carries the VM's CPU demand (the manager knows the
// application's resource requirements, §I), and availability includes the
// feasibility check u + demand/capacity <= ta: a server never volunteers for
// a VM that would push it past the threshold, which matters for the heavy
// tail of CPU-hungry VMs.
func (p *Policy) selectDestination(env cluster.Env, ta float64, exclude int, allowWake bool, demandMHz, ramMB float64) *dc.Server {
	p.invited = env.DC.AppendActive(p.invited[:0])
	invited := p.core.Invitees(p.mgr, p.invited, exclude, &p.nextGroup)
	round := p.core.Round(ta)
	accepted := p.accepted[:0]
	for _, s := range invited {
		inv := Invitee{U: s.UtilizationAt(env.Now), CapMHz: s.CapacityMHz(), Grace: p.inGrace(s, env.Now)}
		if p.core.RAM != nil {
			inv.RAMU, inv.RAMMB = s.RAMUtilization(), s.Spec.RAMMB
		}
		if round.Accept(&p.servers, s.ID, demandMHz, ramMB, inv) {
			accepted = append(accepted, s)
		}
	}
	p.accepted = accepted
	if len(accepted) > 0 {
		if p.core.PickMostLoaded {
			best := accepted[0]
			bestU := best.UtilizationAt(env.Now)
			for _, s := range accepted[1:] {
				if u := s.UtilizationAt(env.Now); u > bestU {
					best, bestU = s, u
				}
			}
			return best
		}
		return accepted[p.mgr.Intn(len(accepted))]
	}
	if !allowWake {
		return nil
	}
	// Wake a hibernated server that can actually fit the VM; if the VM is
	// too big for every sleeping machine, wake the largest one and degrade.
	sleeping := p.sleeping[:0]
	for _, s := range env.DC.Servers {
		if s.State() == dc.Hibernated {
			sleeping = append(sleeping, s)
		}
	}
	p.sleeping = sleeping
	spec := func(i int) dc.Spec { return sleeping[i].Spec }
	i := p.core.Wake(p.mgr, len(sleeping), spec, demandMHz, ramMB, ta)
	if i < 0 {
		i = Largest(len(sleeping), spec)
	}
	if i < 0 {
		return nil
	}
	wake := sleeping[i]
	if err := env.DC.Activate(wake, env.Now); err != nil {
		panic(fmt.Sprintf("ecocloud: waking server %d: %v", wake.ID, err))
	}
	return wake
}
