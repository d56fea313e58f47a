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
//     in the same (ID-sorted) order. In general mutations do NOT fold a VM's
//     demand in or out of the cached sum incrementally — floating-point
//     addition is not associative, so that would change the bits.
//     Place/Remove/Migrate drop the aggregate (O(1)) and the next DemandAt
//     refills. One fold is exact:
//     a VM appended last, its ID above every hosted ID (every placement of
//     a workload fed in ID order, such as a t = 0 arrival burst). A fresh
//     ID-order sum over the grown set ends by adding that VM's sample, so
//     adding its samples to the block's entries gives each entry exactly
//     the fresh bits (foldAppended). A mid-list insert, a removal and the
//     source end of a migration empty the block.
//   - The filled value is keyed by a validity window [from, until): the
//     intersection of the hosted VMs' constant-demand windows (their current
//     trace epochs, clamped by lifetime). Any lookup inside the window is a
//     hit; the first lookup past an epoch boundary misses and refills.
//   - A refill keeps no per-VM state. In a trace-driven run every VM's
//     sample changes at every epoch, so a per-VM memo would miss anyway.
//     When the hosted VMs share one sampling grid, trace.SumEpochs sums the
//     next blockEpochs epochs into the server's block at about the memory
//     cost of one, each entry the same fresh ID-order sum; the refills of
//     the following epochs install their entry and read no VM. Off the grid a
//     refill falls back to trace.SumDemandAt. Every mutation drops the
//     aggregate and counts one invalidation; every mutation but an append
//     also empties the block.
//
// Layout: the aggregate (sum + validity window), the counters and the block
// live in the DataCenter's flat hot-state arrays (hot.go), indexed by server
// ID. Both the hit path and the refill are zero-alloc — alloc_test.go pins
// that with testing.AllocsPerRun.
//
// Concurrency: a server's cache is mutated on reads. That is safe under the
// project's execution model — the engine is single-threaded, and the only
// parallel fan-outs (the experiment registry, the control round's span
// dispatch, the protocol's scan) partition servers, or whole data centers,
// across workers, and every cached word is indexed by server ID.
// Workloads shared between concurrent runs stay read-only: refills only read
// trace.VM.

// blockEpochs is how many epochs one refill pass sums ahead: eight samples
// of a VM fill one cache line.
const blockEpochs = 8

// demandBlock holds the sums of one server's VMs over n consecutive epochs
// of their shared grid: sums[j] rules [from+j·epoch, from+(j+1)·epoch). It
// is empty when n is 0. The snapshot does not carry it; a restored server
// refills it on its first miss.
type demandBlock struct {
	sums  [blockEpochs]float64
	n     int
	from  time.Duration
	epoch time.Duration
}

// entry returns the index of the block entry whose epoch holds t, if any.
func (b *demandBlock) entry(t time.Duration) (int, bool) {
	if b.n == 0 || t < b.from {
		return 0, false
	}
	j := uint64(t-b.from) / uint64(b.epoch)
	return int(j), j < uint64(b.n)
}

// invalidate drops the cached aggregate and empties the block.
func (s *Server) invalidate() {
	s.d.hot.kBlock[s.ID].n = 0
	s.dropAggregate()
}

// dropAggregate drops the cached aggregate, counting the invalidation when
// it was valid.
func (s *Server) dropAggregate() {
	h := &s.d.hot
	if h.kValid[s.ID] {
		h.kValid[s.ID] = false
		h.kInval[s.ID]++
	}
}

// foldAppended updates the cache for vm, just appended above every hosted
// ID. It drops the aggregate as invalidate does, so every counter moves as
// before, but adds vm's samples k … k+n−1 into the block, which leaves each
// entry with the bits trace.SumEpochs gives the grown set. The block is
// kept under SumEpochs's own rule for vm: the hosted VMs' Start and Epoch,
// alive and short of its last sample through the block's first epoch k,
// and n trimmed to the epoch in which vm ends or reaches its last sample.
// Otherwise it is emptied.
func (s *Server) foldAppended(vm *trace.VM) {
	s.dropAggregate()
	b := &s.d.hot.kBlock[s.ID]
	if b.n == 0 {
		return
	}
	// Only appends keep a filled block, so s.vms[0] is the VM whose Start
	// the block's grid was taken from.
	start := s.vms[0].Start
	k := int((b.from - start) / b.epoch)
	if vm.Start != start || vm.Epoch != b.epoch || vm.End < b.from+b.epoch || len(vm.Demand) <= k+1 {
		b.n = 0
		return
	}
	n := min(b.n, len(vm.Demand)-1-k)
	if vm.End < b.from+time.Duration(n)*b.epoch {
		n = int((vm.End - b.from) / b.epoch)
	}
	for j, d := range vm.Demand[k : k+n] {
		b.sums[j] += d
	}
	b.n = n
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

// refill installs the aggregate and validity window for t: the block's
// entry when the block covers t, else entry 0 of a block refilled with
// trace.SumEpochs, else (off the shared grid) trace.SumDemandAt's sum and
// window. Each is the exact summation (VM-ID order) the naive path runs. It
// does not touch the hit/miss counters; demandAt and DataCenter.WarmSpan
// account for their own accesses.
//
//ecolint:hotpath
func (s *Server) refill(t time.Duration) float64 {
	h := &s.d.hot
	b := &h.kBlock[s.ID]
	j, ok := b.entry(t)
	if !ok {
		j = 0 // t lies in a refilled block's first epoch
		if b.n, b.from, b.epoch = trace.SumEpochs(s.vms, t, b.sums[:]); b.n == 0 {
			sum, from, until := trace.SumDemandAt(s.vms, t)
			h.kValid[s.ID], h.kFrom[s.ID], h.kUntil[s.ID], h.kSum[s.ID] = true, from, until, sum
			return sum
		}
	}
	from := b.from + time.Duration(j)*b.epoch
	h.kValid[s.ID], h.kFrom[s.ID], h.kUntil[s.ID], h.kSum[s.ID] = true, from, from+b.epoch, b.sums[j]
	return b.sums[j]
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
// Disabling also drops any cached aggregates and blocks, so a subsequent
// re-enable starts cold. Enabling is a pure switch flip — it must not touch
// the aggregates, because a checkpoint restore reinstates them before the run
// re-arms the cache. The cache is on by default; the off position exists for
// the differential tests and the naive-vs-cached scalability benchmarks.
func (d *DataCenter) SetDemandCache(on bool) {
	d.kernelDisabled = !on
	if on {
		return
	}
	for i := range d.hot.kValid {
		d.hot.kValid[i] = false
		d.hot.kBlock[i].n = 0
	}
}
