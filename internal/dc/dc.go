// Package dc models the physical data center: heterogeneous servers, VM
// placement, power, and hibernation. It is policy-free — the consolidation
// algorithms (ecocloud, baseline) observe and mutate it through the
// placement/state API, so the same model backs every algorithm and the
// baseline comparison is apples-to-apples.
//
// The paper's testbed (§III): 400 servers, all with 2 GHz cores, one third
// with 4 cores, one third with 6, one third with 8.
package dc

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"repro/internal/trace"
)

// State is a server's power state.
type State int

const (
	// Hibernated servers consume (near) zero power and host no VMs.
	Hibernated State = iota
	// Active servers host VMs and consume idle+proportional power.
	Active
	// Failed servers have crashed: they host no VMs, draw no power, and
	// cannot be activated until they Recover (to Hibernated).
	Failed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Hibernated:
		return "hibernated"
	case Active:
		return "active"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Spec describes a server model.
type Spec struct {
	Cores   int
	CoreMHz float64
	// RAMMB is the server's memory in MiB. Zero means the memory dimension
	// is not modeled (the paper's CPU-only experiments); the §V
	// multi-resource extension sets it.
	RAMMB float64
}

// CapacityMHz returns the total CPU capacity of the spec.
func (s Spec) CapacityMHz() float64 { return float64(s.Cores) * s.CoreMHz }

// WithRAM returns a copy of specs with RAMMB set to mbPerCore * Cores on
// every server — the standard way to equip a fleet for the multi-resource
// experiments.
func WithRAM(specs []Spec, mbPerCore float64) []Spec {
	out := make([]Spec, len(specs))
	for i, sp := range specs {
		sp.RAMMB = mbPerCore * float64(sp.Cores)
		out[i] = sp
	}
	return out
}

// PowerModel maps utilization to electrical power. The paper cites that an
// active-but-idle server draws 65–70% of its fully-utilized power; power is
// linear in utilization between those endpoints, the standard model in the
// consolidation literature (Beloglazov & Buyya 2010).
type PowerModel struct {
	PeakW        float64 // draw at 100% utilization
	IdleFraction float64 // idle draw as a fraction of peak (paper: 0.65–0.70)
	HibernateW   float64 // draw while hibernated (sleep-mode residual)
}

// DefaultPowerModel returns the calibration used in the experiments:
// 250 W peak, 65% idle fraction, 5 W hibernated.
func DefaultPowerModel() PowerModel {
	return PowerModel{PeakW: 250, IdleFraction: 0.65, HibernateW: 5}
}

// Power returns the draw of a server in the given state at utilization u
// (clamped to [0,1]; over-demand cannot push the CPU past full speed).
// Failed servers draw nothing: a crashed machine is off the PDU.
func (p PowerModel) Power(state State, u float64) float64 {
	if state == Failed {
		return 0
	}
	if state == Hibernated {
		return p.HibernateW
	}
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return p.PeakW * (p.IdleFraction + (1-p.IdleFraction)*u)
}

// Server is one physical machine. All mutation goes through DataCenter so
// the vm→server index stays consistent. Hosted VMs are kept in an ID-sorted
// slice: iteration order (and therefore floating-point summation order) is
// deterministic, which keeps whole runs bit-reproducible.
//
// Server is a thin accessor view: the per-tick hot fields (power state, used
// RAM, activation time, the demand-kernel aggregate) live in the owning
// DataCenter's flat arrays (see hot.go), indexed by ID. Only the jagged
// per-server state — the VM slice — lives here.
type Server struct {
	ID   int
	Spec Spec

	d   *DataCenter
	vms []*trace.VM // sorted by VM ID
}

// State returns the server's power state.
func (s *Server) State() State { return s.d.hot.state[s.ID] }

// ActivatedAt returns the virtual time of the most recent transition to
// Active; the assignment procedure's 30-minute grace period (§IV) keys
// off it.
func (s *Server) ActivatedAt() time.Duration { return s.d.hot.activatedAt[s.ID] }

// SetActivatedAt overrides the activation timestamp — scenario setup uses it
// to pre-activate servers with no grace period.
func (s *Server) SetActivatedAt(t time.Duration) { s.d.hot.activatedAt[s.ID] = t }

// NumVMs returns how many VMs the server currently hosts.
func (s *Server) NumVMs() int { return len(s.vms) }

// VMs returns the hosted VMs in ascending ID order. The returned slice is a
// copy; mutating it does not affect placement.
func (s *Server) VMs() []*trace.VM {
	out := make([]*trace.VM, len(s.vms))
	copy(out, s.vms)
	return out
}

// AppendVMs appends the hosted VMs to dst in ascending ID order and returns
// the extended slice: VMs without the allocation, for a caller that keeps
// a scratch buffer.
func (s *Server) AppendVMs(dst []*trace.VM) []*trace.VM { return append(dst, s.vms...) }

// indexOf returns the position of vmID in the sorted slice, or -1.
func (s *Server) indexOf(vmID int) int {
	i := sort.Search(len(s.vms), func(i int) bool { return s.vms[i].ID >= vmID })
	if i < len(s.vms) && s.vms[i].ID == vmID {
		return i
	}
	return -1
}

// firstVMCap is the room a server's first placement makes for VMs: the
// paper's fleet hosts 15 per server (6,000 VMs on 400 servers).
const firstVMCap = 16

// insert places vm into the sorted slice. A VM whose ID is above every
// hosted ID — each placement of a workload numbered in arrival order — is
// appended without a search and folded into the demand block
// (foldAppended); any other insert empties the block.
func (s *Server) insert(vm *trace.VM) {
	if cap(s.vms) == 0 {
		s.vms = make([]*trace.VM, 0, firstVMCap)
	}
	s.d.hot.usedRAMMB[s.ID] += vm.RAMMB
	if n := len(s.vms); n == 0 || s.vms[n-1].ID < vm.ID {
		s.vms = append(s.vms, vm)
		s.foldAppended(vm)
		return
	}
	i := sort.Search(len(s.vms), func(i int) bool { return s.vms[i].ID >= vm.ID })
	s.vms = append(s.vms, nil)
	copy(s.vms[i+1:], s.vms[i:])
	s.vms[i] = vm
	s.invalidate()
}

// removeAt deletes the VM at index i.
func (s *Server) removeAt(i int) {
	s.d.hot.usedRAMMB[s.ID] -= s.vms[i].RAMMB
	copy(s.vms[i:], s.vms[i+1:])
	s.vms[len(s.vms)-1] = nil
	s.vms = s.vms[:len(s.vms)-1]
	s.invalidate()
}

// UsedRAMMB returns the summed memory footprint of hosted VMs.
func (s *Server) UsedRAMMB() float64 { return s.d.hot.usedRAMMB[s.ID] }

// RAMUtilization returns used/capacity memory, or 0 when the server does
// not model memory. Values above 1 mean overcommit (swapping).
func (s *Server) RAMUtilization() float64 {
	if s.Spec.RAMMB <= 0 {
		return 0
	}
	return s.d.hot.usedRAMMB[s.ID] / s.Spec.RAMMB
}

// CapacityMHz returns the server's total CPU capacity.
func (s *Server) CapacityMHz() float64 { return s.d.hot.capMHz[s.ID] }

// DemandAt returns the total CPU demand (MHz) of hosted VMs at time t. It
// can exceed capacity: that is an over-demand (overload) condition. Lookups
// are served by the demand kernel (see demandkernel.go): cached for the
// current trace epoch, bit-identical to a fresh per-VM summation.
//
//ecolint:hotpath
func (s *Server) DemandAt(t time.Duration) float64 {
	return s.demandAt(t)
}

// UtilizationAt returns demand/capacity at time t, uncapped, so values above
// 1 signal overload. Policies clamp as needed.
func (s *Server) UtilizationAt(t time.Duration) float64 {
	return s.DemandAt(t) / s.CapacityMHz()
}

// OverDemandAt returns the CPU demand (MHz) that cannot be granted at time t
// (0 when the server is not overloaded).
func (s *Server) OverDemandAt(t time.Duration) float64 {
	over := s.DemandAt(t) - s.CapacityMHz()
	if over < 0 {
		return 0
	}
	return over
}

// DataCenter is a fleet of servers plus the vm→server index.
type DataCenter struct {
	Servers []*Server
	byVM    vmIndex // see vmindex.go

	// hot holds the per-server fields every control tick touches, as flat
	// structure-of-arrays state indexed by server ID (see hot.go).
	hot hotState
	// kernelDisabled switches every DemandAt back to naive recomputation
	// (see SetDemandCache).
	kernelDisabled bool

	// Switch counters, incremented by Activate/Hibernate; experiment drivers
	// snapshot them into rate series (Fig. 10).
	Activations  int
	Hibernations int

	// Fault counters, incremented by Fail/Recover.
	Failures   int
	Recoveries int

	// journal, when set, receives every state mutation (see journal.go).
	journal func(Event)

	// checked enables per-mutation invariant verification (see checked.go).
	checked bool
}

// New builds a data center with one server per spec. Servers start
// hibernated; policies wake what they need.
func New(specs []Spec) *DataCenter {
	d := &DataCenter{
		checked: defaultChecked,
		hot:     newHotState(len(specs)),
	}
	// One contiguous backing array: the views themselves are iterated in ID
	// order all over the codebase, so keep them dense too.
	backing := make([]Server, len(specs))
	d.Servers = make([]*Server, len(specs))
	for i, sp := range specs {
		if sp.Cores <= 0 || sp.CoreMHz <= 0 {
			panic(fmt.Sprintf("dc: invalid spec %d: %+v", i, sp))
		}
		backing[i] = Server{ID: i, Spec: sp, d: d}
		d.Servers[i] = &backing[i]
		d.hot.capMHz[i] = sp.CapacityMHz()
	}
	return d
}

// StandardFleet returns n servers in the paper's mix: thirds of 4-, 6- and
// 8-core machines, all with 2 GHz cores. When n is not divisible by 3 the
// remainder goes to the 8-core class.
func StandardFleet(n int) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		cores := 4
		switch {
		case i >= 2*n/3:
			cores = 8
		case i >= n/3:
			cores = 6
		}
		specs[i] = Spec{Cores: cores, CoreMHz: 2000}
	}
	return specs
}

// UniformFleet returns n identical servers, used by the Fig. 12/13
// experiments (100 servers with 6 cores at 2 GHz).
func UniformFleet(n, cores int, coreMHz float64) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = Spec{Cores: cores, CoreMHz: coreMHz}
	}
	return specs
}

// TotalCapacityMHz sums the capacity of all servers, active or not.
func (d *DataCenter) TotalCapacityMHz() float64 {
	sum := 0.0
	for _, s := range d.Servers {
		sum += s.CapacityMHz()
	}
	return sum
}

// ActiveCount returns how many servers are currently active.
func (d *DataCenter) ActiveCount() int {
	n := 0
	for _, word := range d.hot.active {
		n += bits.OnesCount64(word)
	}
	return n
}

// HostOf returns the server hosting vmID, if any. An ID outside
// [0, 2^31) is never placed.
func (d *DataCenter) HostOf(vmID int) (*Server, bool) {
	if id := d.byVM.host(vmID); id >= 0 {
		return d.Servers[id], true
	}
	return nil, false
}

// NumPlaced returns how many VMs are currently placed.
func (d *DataCenter) NumPlaced() int { return d.byVM.placed }

// Activate wakes a hibernated server at virtual time t. Failed servers
// cannot be woken: the wake command is lost on dead hardware.
func (d *DataCenter) Activate(s *Server, t time.Duration) error {
	if d.hot.state[s.ID] == Active {
		return fmt.Errorf("dc: server %d already active", s.ID)
	}
	if d.hot.state[s.ID] == Failed {
		return fmt.Errorf("dc: activating failed server %d", s.ID)
	}
	d.hot.setState(s.ID, Active)
	d.hot.activatedAt[s.ID] = t
	d.Activations++
	d.emit(Event{Kind: EventActivate, VM: -1, Server: s.ID, Dest: -1})
	return nil
}

// Hibernate puts an active, empty server to sleep.
func (d *DataCenter) Hibernate(s *Server) error {
	if d.hot.state[s.ID] != Active {
		return fmt.Errorf("dc: server %d not active", s.ID)
	}
	if len(s.vms) > 0 {
		return fmt.Errorf("dc: server %d still hosts %d VMs", s.ID, len(s.vms))
	}
	d.hot.setState(s.ID, Hibernated)
	d.Hibernations++
	d.emit(Event{Kind: EventHibernate, VM: -1, Server: s.ID, Dest: -1})
	return nil
}

// Place assigns an unplaced VM to an active server. VM IDs must lie in
// [0, 2^31), the index's domain. Placing on a hibernated or failed server is
// a hard error in every build (not just checked mode): the fault path must
// never silently park a VM on a sleeping or dead machine.
func (d *DataCenter) Place(vm *trace.VM, s *Server) error {
	if vm.ID < 0 || vm.ID > maxVMID {
		return fmt.Errorf("dc: VM ID %d outside [0, %d]", vm.ID, maxVMID)
	}
	if st := d.hot.state[s.ID]; st != Active {
		return fmt.Errorf("dc: placing VM %d on %s server %d", vm.ID, st, s.ID)
	}
	if host := d.byVM.host(vm.ID); host >= 0 {
		return fmt.Errorf("dc: VM %d already placed on server %d", vm.ID, host)
	}
	s.insert(vm)
	d.byVM.set(vm.ID, s.ID)
	d.emit(Event{Kind: EventPlace, VM: vm.ID, Server: s.ID, Dest: -1})
	return nil
}

// Remove takes a VM off its host (departure) and returns the host.
func (d *DataCenter) Remove(vmID int) (*Server, error) {
	id := d.byVM.host(vmID)
	if id < 0 {
		return nil, fmt.Errorf("dc: VM %d not placed", vmID)
	}
	host := d.Servers[id]
	host.removeAt(host.indexOf(vmID))
	d.byVM.clear(vmID)
	d.emit(Event{Kind: EventRemove, VM: vmID, Server: host.ID, Dest: -1})
	return host, nil
}

// Migrate moves a placed VM to another active server.
func (d *DataCenter) Migrate(vmID int, to *Server) error {
	id := d.byVM.host(vmID)
	if id < 0 {
		return fmt.Errorf("dc: migrating unplaced VM %d", vmID)
	}
	from := d.Servers[id]
	if to == from {
		return fmt.Errorf("dc: migrating VM %d onto its own host %d", vmID, to.ID)
	}
	if st := d.hot.state[to.ID]; st != Active {
		return fmt.Errorf("dc: migrating VM %d to %s server %d", vmID, st, to.ID)
	}
	i := from.indexOf(vmID)
	vm := from.vms[i]
	from.removeAt(i)
	to.insert(vm)
	d.byVM.set(vmID, to.ID)
	d.emit(Event{Kind: EventMigrate, VM: vmID, Server: from.ID, Dest: to.ID})
	return nil
}

// Fail crashes a server at virtual time t, from any live state. Hosted VMs
// are evicted (removed from the server and the index) and returned in
// ascending ID order so the caller can decide their fate — re-enter them
// through the assignment procedure, or count them as lost. The server ends
// in Failed and stays unusable until Recover.
func (d *DataCenter) Fail(s *Server, t time.Duration) ([]*trace.VM, error) {
	if d.hot.state[s.ID] == Failed {
		return nil, fmt.Errorf("dc: server %d already failed", s.ID)
	}
	evicted := s.VMs()
	for _, vm := range evicted {
		s.removeAt(s.indexOf(vm.ID))
		d.byVM.clear(vm.ID)
		d.emit(Event{Kind: EventCrashEvict, VM: vm.ID, Server: s.ID, Dest: -1})
	}
	d.hot.setState(s.ID, Failed)
	d.Failures++
	d.emit(Event{Kind: EventFail, VM: -1, Server: s.ID, Dest: -1})
	return evicted, nil
}

// Recover returns a failed server to the wakeable pool at virtual time t. A
// repaired machine boots into Hibernated — policies wake it when they need
// it, exactly like a fresh server.
func (d *DataCenter) Recover(s *Server, t time.Duration) error {
	if st := d.hot.state[s.ID]; st != Failed {
		return fmt.Errorf("dc: recovering %s server %d", st, s.ID)
	}
	d.hot.setState(s.ID, Hibernated)
	d.Recoveries++
	d.emit(Event{Kind: EventRecover, VM: -1, Server: s.ID, Dest: -1})
	return nil
}

// FailedCount returns how many servers are currently failed.
func (d *DataCenter) FailedCount() int {
	n := 0
	for _, st := range d.hot.state {
		if st == Failed {
			n++
		}
	}
	return n
}

// PowerAt returns the total electrical draw (W) of the fleet at time t under
// the given power model.
func (d *DataCenter) PowerAt(t time.Duration, pm PowerModel) float64 {
	sum := 0.0
	for i, st := range d.hot.state {
		sum += pm.Power(st, d.Servers[i].demandAt(t)/d.hot.capMHz[i])
	}
	return sum
}

// MinServersFor returns the smallest number of servers from specs whose
// combined capacity, packed up to utilization ta, covers demandMHz —
// choosing the largest machines first, which is optimal for pure capacity
// covering. This is the "theoretical minimum" the paper's abstract compares
// ecoCloud's efficiency against (it ignores bin-packing granularity, so it
// is a true lower bound).
func MinServersFor(specs []Spec, demandMHz, ta float64) int {
	if demandMHz <= 0 {
		return 0
	}
	if ta <= 0 {
		panic(fmt.Sprintf("dc: MinServersFor with ta = %v", ta))
	}
	caps := make([]float64, len(specs))
	for i, sp := range specs {
		caps[i] = sp.CapacityMHz()
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(caps)))
	n := 0
	remaining := demandMHz
	for _, c := range caps {
		if remaining <= 0 {
			break
		}
		remaining -= ta * c
		n++
	}
	if remaining > 0 {
		// Demand exceeds the whole fleet's packed capacity; every server
		// plus notional extras would be needed. Report the fleet size: the
		// bound saturates.
		return len(specs)
	}
	return n
}

// CheckInvariants verifies internal consistency: every indexed VM is on the
// server the index claims, hosted VM sets match the index exactly, only
// active servers host VMs (hibernated and failed servers must be empty),
// and the active bitset agrees with every server's state.
// Tests and the driver's paranoid mode call it.
func (d *DataCenter) CheckInvariants() error {
	seen := 0
	for _, s := range d.Servers {
		st := d.hot.state[s.ID]
		if st != Active && len(s.vms) > 0 {
			return fmt.Errorf("dc: %s server %d hosts %d VMs", st, s.ID, len(s.vms))
		}
		if bit := d.hot.active[s.ID/64]>>(s.ID%64)&1 == 1; bit != (st == Active) {
			return fmt.Errorf("dc: %s server %d has active bit %v", st, s.ID, bit)
		}
		ram := 0.0
		for _, vm := range s.vms {
			ram += vm.RAMMB
		}
		if diff := ram - d.hot.usedRAMMB[s.ID]; diff > 1e-6 || diff < -1e-6 {
			return fmt.Errorf("dc: server %d RAM accounting drift: %v vs %v", s.ID, d.hot.usedRAMMB[s.ID], ram)
		}
		for i, vm := range s.vms {
			if i > 0 && s.vms[i-1].ID >= vm.ID {
				return fmt.Errorf("dc: server %d VM slice not strictly sorted at %d", s.ID, i)
			}
			if d.byVM.host(vm.ID) != s.ID {
				return fmt.Errorf("dc: VM %d on server %d but index disagrees", vm.ID, s.ID)
			}
			seen++
		}
	}
	// Every hosted VM's entry names its host, so a count above seen is an
	// entry for a VM that no server hosts.
	if seen != d.byVM.placed {
		return fmt.Errorf("dc: index has %d VMs, servers hold %d", d.byVM.placed, seen)
	}
	return nil
}
