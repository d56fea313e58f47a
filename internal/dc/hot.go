package dc

import (
	"math/bits"
	"time"
)

// Hot-state layout
//
// The fields the control round touches for EVERY server on EVERY tick —
// power state, used RAM, activation time, CPU capacity, and the demand
// kernel's cached aggregate with its validity window and counters — live in
// flat, contiguous per-datacenter arrays indexed by server ID, not in the
// Server structs. A 100k-server observation pass walks a handful of dense
// float64/State arrays instead of chasing 100k pointers into scattered
// structs, which is what lets the sharded control round scale with cores
// instead of with cache misses.
//
// Server remains the API: it is a thin accessor view (ID + Spec + the jagged
// per-server VM slice) whose methods read and write the hot arrays through
// the back-pointer to its DataCenter. Nothing outside the package sees the
// layout, so snapshots, checked-mode invariants and every policy keep
// working unchanged — they always went through methods.
type hotState struct {
	state []State
	// active has bit i set exactly when state[i] == Active, so the
	// invitation round and the scan walk only active servers, in ID order.
	// setState is its one writer.
	active      []uint64
	usedRAMMB   []float64
	activatedAt []time.Duration
	capMHz      []float64 // == Spec.CapacityMHz(), precomputed once

	// Demand-kernel aggregate per server (see demandkernel.go): the cached
	// sum, its validity window [kFrom, kUntil), the access counters, and the
	// block of epoch sums the next refills install from.
	// Counters are per-server — not one shared word — so a sharded warm
	// phase can increment them without a data race.
	kValid  []bool
	kFrom   []time.Duration
	kUntil  []time.Duration
	kSum    []float64
	kHits   []uint64
	kMisses []uint64
	kInval  []uint64
	kBlock  []demandBlock
}

// newHotState allocates the arrays for n servers (all hibernated, all cold).
func newHotState(n int) hotState {
	return hotState{
		state:       make([]State, n),
		active:      make([]uint64, (n+63)/64),
		usedRAMMB:   make([]float64, n),
		activatedAt: make([]time.Duration, n),
		capMHz:      make([]float64, n),
		kValid:      make([]bool, n),
		kFrom:       make([]time.Duration, n),
		kUntil:      make([]time.Duration, n),
		kSum:        make([]float64, n),
		kHits:       make([]uint64, n),
		kMisses:     make([]uint64, n),
		kInval:      make([]uint64, n),
		kBlock:      make([]demandBlock, n),
	}
}

// setState moves server id to st. Every write to the power state goes
// through here, so the active bitset never drifts from it.
func (h *hotState) setState(id int, st State) {
	h.state[id] = st
	if st == Active {
		h.active[id/64] |= 1 << (id % 64)
	} else {
		h.active[id/64] &^= 1 << (id % 64)
	}
}

// AppendActive appends the active servers to dst in ascending ID order and
// returns the extended slice.
func (d *DataCenter) AppendActive(dst []*Server) []*Server {
	for w, word := range d.hot.active {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, d.Servers[w*64+bits.TrailingZeros64(word)])
		}
	}
	return dst
}

// NextActive returns the lowest ID >= from (from >= 0) of an active server,
// or -1 when there is none. It reads the live state, so a loop that
// advances with NextActive(id+1) visits a server activated mid-loop above
// id.
func (d *DataCenter) NextActive(from int) int {
	w := from / 64
	if w >= len(d.hot.active) {
		return -1
	}
	word := d.hot.active[w] >> (from % 64) << (from % 64)
	for word == 0 {
		if w++; w == len(d.hot.active) {
			return -1
		}
		word = d.hot.active[w]
	}
	return w*64 + bits.TrailingZeros64(word)
}

// TickSample is one server's share of the control round's overload
// observation: everything the runner folds into its accounting, computed in
// one pass over the hot arrays. Inactive servers report the zero value.
type TickSample struct {
	Active  bool
	Over    bool    // CPU demand exceeds capacity
	RAMOver bool    // memory overcommitted (only when the fleet models RAM)
	Demand  float64 // DemandAt(now), MHz
	Cap     float64 // CapacityMHz
	NVMs    float64 // hosted VM count, as the float the accounting sums
}

// ObserveSpan fills out[i-lo] with server i's TickSample for each i in
// [lo, hi). It performs exactly the reads the sequential observation loop
// performs — one counted DemandAt per active server — so accounting and
// demand-cache traffic match the pre-span runner bit for bit. Workers may
// call it on disjoint spans concurrently: every touched word (including the
// kernel aggregate and its counters) is indexed by server ID.
//
//ecolint:hotpath
func (d *DataCenter) ObserveSpan(lo, hi int, now time.Duration, out []TickSample) {
	h := &d.hot
	for i := lo; i < hi; i++ {
		if h.state[i] != Active {
			out[i-lo] = TickSample{}
			continue
		}
		s := d.Servers[i]
		demand := s.demandAt(now)
		capa := h.capMHz[i]
		out[i-lo] = TickSample{
			Active:  true,
			Over:    demand > capa,
			RAMOver: s.Spec.RAMMB > 0 && h.usedRAMMB[i] > s.Spec.RAMMB,
			Demand:  demand,
			Cap:     capa,
			NVMs:    float64(len(s.vms)),
		}
	}
}

// WarmSpan refills the demand aggregate of every active server in [lo, hi)
// whose cached window does not cover now, without counting the access. It
// exists for the parallel control round: workers warm every server up
// front, and the sequential policy scan that follows takes the hit path. A
// prewarmed run therefore reports the same total number of demand lookups
// as a sequential one (the hit/miss split shifts toward hits). The
// installed value is bit-identical to what a miss at now would have
// installed, so warming never changes a demand a later read returns. No-op
// when the kernel is disabled. Safe to shard: it mutates only words indexed
// by server ID.
//
//ecolint:hotpath
func (d *DataCenter) WarmSpan(lo, hi int, now time.Duration) {
	if d.kernelDisabled {
		return
	}
	h := &d.hot
	for i := lo; i < hi; i++ {
		if h.state[i] != Active {
			continue
		}
		if h.kValid[i] && now >= h.kFrom[i] && now < h.kUntil[i] {
			continue
		}
		d.Servers[i].refill(now)
	}
}

// UtilSpan fills out[i-lo] with server i's utilization at now for active
// servers and 0 otherwise — the per-server sample row of Figs. 6/12. Safe to
// shard on disjoint spans, like ObserveSpan.
//
//ecolint:hotpath
func (d *DataCenter) UtilSpan(lo, hi int, now time.Duration, out []float64) {
	h := &d.hot
	for i := lo; i < hi; i++ {
		if h.state[i] != Active {
			out[i-lo] = 0
			continue
		}
		out[i-lo] = d.Servers[i].demandAt(now) / h.capMHz[i]
	}
}

// AuditSpan runs the checked-mode numeric audit over [lo, hi) and returns
// the first error in server-index order, or nil — the span unit the parallel
// control round shards (see CheckServerRuntime).
func (d *DataCenter) AuditSpan(lo, hi int, now time.Duration) error {
	for i := lo; i < hi; i++ {
		if err := d.CheckServerRuntime(i, now); err != nil {
			return err
		}
	}
	return nil
}
