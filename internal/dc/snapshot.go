package dc

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// Snapshot is a serializable image of the data center's mutable state:
// power states, activation times, placements (by VM ID), switch counters,
// and the SoA hot state the PR 6 refactor moved into flat arrays — the
// demand-kernel aggregates with their counters and the historical RAM
// accounting. Together with the (immutable) specs and workload it restores a
// run bit for bit — the building block for checkpointing long simulations.
type Snapshot struct {
	Servers      []ServerSnapshot `json:"servers"`
	Activations  int              `json:"activations"`
	Hibernations int              `json:"hibernations"`
	Failures     int              `json:"failures,omitempty"`
	Recoveries   int              `json:"recoveries,omitempty"`
}

// ServerSnapshot is one server's mutable state. Active and Failed are
// mutually exclusive; both false means Hibernated.
type ServerSnapshot struct {
	ID          int   `json:"id"`
	Active      bool  `json:"active"`
	Failed      bool  `json:"failed,omitempty"`
	ActivatedNS int64 `json:"activated_ns"`
	VMs         []int `json:"vms"`

	// UsedRAMMB is the server's historical RAM accumulator. It is captured —
	// not recomputed from the placed VMs — because the accumulator is the
	// running sum over the server's whole placement history and
	// floating-point addition does not commute with replay order.
	UsedRAMMB float64 `json:"used_ram_mb,omitempty"`

	// Kernel is the demand-kernel aggregate and its access counters.
	Kernel KernelSnapshot `json:"kernel"`
}

// KernelSnapshot is one server's demand-kernel state (see demandkernel.go):
// the cached aggregate with its validity window, plus the hit/miss/
// invalidation counters, which are observable through DemandCacheStats and
// therefore part of the bit-identity contract.
type KernelSnapshot struct {
	Valid   bool    `json:"valid,omitempty"`
	FromNS  int64   `json:"from_ns,omitempty"`
	UntilNS int64   `json:"until_ns,omitempty"`
	Sum     float64 `json:"sum,omitempty"`
	Hits    uint64  `json:"hits,omitempty"`
	Misses  uint64  `json:"misses,omitempty"`
	Inval   uint64  `json:"inval,omitempty"`
}

// Snapshot captures the current state.
func (d *DataCenter) Snapshot() Snapshot {
	snap := Snapshot{
		Activations:  d.Activations,
		Hibernations: d.Hibernations,
		Failures:     d.Failures,
		Recoveries:   d.Recoveries,
	}
	for _, s := range d.Servers {
		h := &d.hot
		ss := ServerSnapshot{
			ID:          s.ID,
			Active:      s.State() == Active,
			Failed:      s.State() == Failed,
			ActivatedNS: int64(s.ActivatedAt()),
			UsedRAMMB:   h.usedRAMMB[s.ID],
			Kernel: KernelSnapshot{
				Valid:   h.kValid[s.ID],
				FromNS:  int64(h.kFrom[s.ID]),
				UntilNS: int64(h.kUntil[s.ID]),
				Sum:     h.kSum[s.ID],
				Hits:    h.kHits[s.ID],
				Misses:  h.kMisses[s.ID],
				Inval:   h.kInval[s.ID],
			},
		}
		for _, vm := range s.vms {
			ss.VMs = append(ss.VMs, vm.ID)
		}
		snap.Servers = append(snap.Servers, ss)
	}
	return snap
}

// Restore builds a data center from specs and applies the snapshot,
// resolving VM IDs against the workload. It fails loudly on any mismatch
// (unknown VM, server count drift, VM on a hibernated server) rather than
// restoring a half-consistent state.
func Restore(specs []Spec, ws *trace.Set, snap Snapshot) (*DataCenter, error) {
	if len(specs) != len(snap.Servers) {
		return nil, fmt.Errorf("dc: snapshot has %d servers, specs %d", len(snap.Servers), len(specs))
	}
	byID := make(map[int]*trace.VM, len(ws.VMs))
	for _, vm := range ws.VMs {
		byID[vm.ID] = vm
	}
	d := New(specs)
	for _, ss := range snap.Servers {
		if ss.ID < 0 || ss.ID >= len(d.Servers) {
			return nil, fmt.Errorf("dc: snapshot server id %d out of range", ss.ID)
		}
		s := d.Servers[ss.ID]
		switch {
		case ss.Active && ss.Failed:
			return nil, fmt.Errorf("dc: snapshot server %d both active and failed", ss.ID)
		case ss.Active:
			if err := d.Activate(s, time.Duration(ss.ActivatedNS)); err != nil {
				return nil, err
			}
		case ss.Failed:
			if len(ss.VMs) > 0 {
				return nil, fmt.Errorf("dc: snapshot has %d VMs on failed server %d", len(ss.VMs), ss.ID)
			}
			d.hot.setState(s.ID, Failed)
		case len(ss.VMs) > 0:
			return nil, fmt.Errorf("dc: snapshot has %d VMs on hibernated server %d", len(ss.VMs), ss.ID)
		}
		for _, id := range ss.VMs {
			vm, ok := byID[id]
			if !ok {
				return nil, fmt.Errorf("dc: snapshot VM %d not in the workload", id)
			}
			if err := d.Place(vm, s); err != nil {
				return nil, err
			}
		}
		// Reinstate the hot state the replay above cannot reproduce: the
		// historical RAM accumulator, the activation timestamp of non-active
		// servers, and the kernel aggregate the placements just invalidated.
		d.hot.usedRAMMB[s.ID] = ss.UsedRAMMB
		d.hot.activatedAt[s.ID] = time.Duration(ss.ActivatedNS)
		k := ss.Kernel
		d.hot.kValid[s.ID] = k.Valid
		d.hot.kFrom[s.ID] = time.Duration(k.FromNS)
		d.hot.kUntil[s.ID] = time.Duration(k.UntilNS)
		d.hot.kSum[s.ID] = k.Sum
		d.hot.kHits[s.ID] = k.Hits
		d.hot.kMisses[s.ID] = k.Misses
		d.hot.kInval[s.ID] = k.Inval
	}
	// The snapshot's counters override the ones the replay just produced.
	d.Activations = snap.Activations
	d.Hibernations = snap.Hibernations
	d.Failures = snap.Failures
	d.Recoveries = snap.Recoveries
	if err := d.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("dc: restored state inconsistent: %v", err)
	}
	return d, nil
}
