package dc

import (
	"time"

	"repro/internal/trace"
)

// The demand kernel caches each server's aggregate CPU demand so the policy
// scans that dominate a run — assignment invitations and migration rounds
// evaluating UtilizationAt across the whole fleet — cost one float read per
// server instead of one trace lookup per hosted VM.
//
// Correctness contract: the cached value is BIT-IDENTICAL to the naive
// recomputation (a fresh sum of vm.DemandAt(t) in VM-ID order). That is what
// lets every caller — ecocloud, baseline, cluster, experiments — take the
// fast path with zero behavioural drift, and it dictates the design:
//
//   - The cache is filled lazily by the exact summation the naive path runs,
//     in the same (ID-sorted) order. Mutations do NOT fold a VM's demand in
//     or out of the cached sum incrementally — floating-point addition is not
//     associative, so that would change the bits. Place/Remove/Migrate just
//     invalidate (O(1)) and the next DemandAt refills.
//   - The filled value is keyed by a validity window [from, until): the
//     intersection of the hosted VMs' constant-demand windows (their current
//     trace epochs, clamped by lifetime). Any lookup inside the window is a
//     hit; the first lookup past an epoch boundary misses and refills.
//   - A refill keeps no per-VM state: trace.SumDemandAt reads the hosted VMs
//     afresh. In a trace-driven run every VM's sample changes at every epoch,
//     so a per-VM memo would miss anyway; when the VMs share one sampling
//     grid, SumDemandAt divides out the epoch index once and reads one sample
//     per VM.
//
// Layout: the aggregate (sum + validity window) and the counters live in the
// DataCenter's flat hot-state arrays (hot.go), indexed by server ID. Both the
// hit path and the refill are zero-alloc — alloc_test.go pins that with
// testing.AllocsPerRun.
//
// Concurrency: a server's cache is mutated on reads. That is safe under the
// project's execution model — the engine is single-threaded, and the only
// parallel fan-outs (ecocloud's invitation round, the experiment registry,
// the control round's span dispatch) partition servers, or whole data
// centers, across workers, and every cached word is indexed by server ID.
// Workloads shared between concurrent runs stay read-only: refills only read
// trace.VM.

// invalidate drops the cached aggregate.
func (s *Server) invalidate() {
	h := &s.d.hot
	if h.kValid[s.ID] {
		h.kValid[s.ID] = false
		h.kInval[s.ID]++
	}
}

// recomputeDemandAt is the naive path: a fresh sum of per-VM trace lookups
// in VM-ID order. It is the reference the cache must reproduce bit for bit.
func (s *Server) recomputeDemandAt(t time.Duration) float64 {
	sum := 0.0
	for _, vm := range s.vms {
		sum += vm.DemandAt(t)
	}
	return sum
}

// demandAt serves a lookup through the kernel: hit on the cached window,
// refill otherwise.
func (s *Server) demandAt(t time.Duration) float64 {
	if s.d.kernelDisabled {
		return s.recomputeDemandAt(t)
	}
	h := &s.d.hot
	if h.kValid[s.ID] && t >= h.kFrom[s.ID] && t < h.kUntil[s.ID] {
		h.kHits[s.ID]++
		return h.kSum[s.ID]
	}
	h.kMisses[s.ID]++
	return s.refill(t)
}

// refill recomputes the aggregate with trace.SumDemandAt — the exact
// summation (VM-ID order) the naive path runs — and installs the validity
// window. It does not touch the hit/miss counters; demandAt and
// WarmDemandCache account for their own accesses.
//
//ecolint:hotpath
func (s *Server) refill(t time.Duration) float64 {
	sum, from, until := trace.SumDemandAt(s.vms, t)
	h := &s.d.hot
	h.kValid[s.ID], h.kFrom[s.ID], h.kUntil[s.ID], h.kSum[s.ID] = true, from, until, sum
	return sum
}

// WarmDemandCache refills the server's demand aggregate for time t without
// counting the access, so a prewarmed run reports the same total number of
// demand lookups as a sequential one (the hit/miss split shifts toward hits;
// the sum of the two is what the accounting tests pin down). It exists for
// the parallel control round: workers warm every server's cache up front —
// a per-server mutation, safe to shard — and the sequential policy scan that
// follows then takes the hit path for every server. The installed value is
// bit-identical to what a miss at t would have installed, so warming never
// changes any demand a later read returns. No-op when the kernel is disabled
// or the cached window already covers t.
func (s *Server) WarmDemandCache(t time.Duration) {
	if s.d.kernelDisabled {
		return
	}
	h := &s.d.hot
	if h.kValid[s.ID] && t >= h.kFrom[s.ID] && t < h.kUntil[s.ID] {
		return
	}
	s.refill(t)
}

// DemandCacheStats aggregates the demand kernel's counters across a fleet.
// Hits and misses count DemandAt lookups (and the UtilizationAt /
// OverDemandAt wrappers); invalidations count cache drops forced by
// Place/Remove/Migrate.
type DemandCacheStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
}

// DemandCacheStats sums the per-server kernel counters.
func (d *DataCenter) DemandCacheStats() DemandCacheStats {
	var st DemandCacheStats
	for i := range d.hot.kHits {
		st.Hits += d.hot.kHits[i]
		st.Misses += d.hot.kMisses[i]
		st.Invalidations += d.hot.kInval[i]
	}
	return st
}

// SetDemandCache enables or disables the demand kernel on every server.
// Disabling also drops any cached aggregates, so a subsequent re-enable
// starts cold. Enabling is a pure switch flip — it must not touch the
// aggregates, because a checkpoint restore reinstates them before the run
// re-arms the cache. The cache is on by default; the off position exists for
// the differential tests and the naive-vs-cached scalability benchmarks.
func (d *DataCenter) SetDemandCache(on bool) {
	d.kernelDisabled = !on
	if on {
		return
	}
	for i := range d.hot.kValid {
		d.hot.kValid[i] = false
	}
}
