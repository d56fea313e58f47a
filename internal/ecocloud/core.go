package ecocloud

import (
	"time"

	"repro/internal/dc"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Core is ecoCloud's decision logic — Fig. 1 of §II plus the §V memory
// extension — written once. Every method is a pure function of the
// configuration and its arguments: it reads no clock and no server state of
// its own accord, mutates nothing but the scratch and cursor it is handed
// (Invitees), and draws only from the stream it is handed, in a fixed
// order. Policy (the cluster driver) and protocol.Cluster (netsim messages,
// in one process or spread over ecod processes) decide through a Core and
// keep only their own sequencing: when servers are asked and how the
// answers travel (see DESIGN.md "One ecoCloud core").
type Core struct {
	Config
	fa    AssignProbFunc // fa of Eq. (1–2)
	faRAM AssignProbFunc // the memory assignment function (zero when RAM is nil)
}

// NewCore builds the decision functions for cfg. It checks only the
// assignment functions' parameters; callers validate the rest of their
// configuration themselves.
func NewCore(cfg Config) (Core, error) {
	fa, err := NewAssignProb(cfg.Ta, cfg.P)
	if err != nil {
		return Core{}, err
	}
	k := Core{Config: cfg, fa: fa}
	if cfg.RAM != nil {
		if k.faRAM, err = NewAssignProb(cfg.RAM.Ta, cfg.RAM.P); err != nil {
			return Core{}, err
		}
	}
	return k, nil
}

// InGrace reports whether a server activated at activatedAt is inside its
// post-activation grace period at now (§IV): it then accepts every
// invitation whose VM fits, and neither hibernates nor asks to be drained.
func (k *Core) InGrace(now, activatedAt time.Duration) bool { return now-activatedAt < k.Grace }

// Invitees selects one invitation round's invitees from active, the active
// servers in ID order, filtering it in place. With InviteGroups above 1 it
// keeps the group *cursor modulo InviteGroups (server ID modulo
// InviteGroups) and advances the cursor, so rounds rotate round-robin over
// the groups (footnote 1). It drops server exclude, a migration's source
// (-1 for none). With InviteSubset positive and more servers left than
// that, it then takes a uniform random subset of InviteSubset of them,
// drawn with one Perm on mgr and kept in draw order.
func (k *Core) Invitees(mgr *rng.Source, active []*dc.Server, exclude int, cursor *int) []*dc.Server {
	group := -1
	if k.InviteGroups > 1 {
		group = *cursor % k.InviteGroups
		*cursor++
	}
	invited := active[:0]
	for _, s := range active {
		if s.ID != exclude && (group < 0 || s.ID%k.InviteGroups == group) {
			invited = append(invited, s)
		}
	}
	if n := k.InviteSubset; n > 0 && len(invited) > n {
		perm := mgr.Perm(len(invited))
		subset := make([]*dc.Server, n)
		for i := range subset {
			subset[i] = invited[perm[i]]
		}
		invited = subset
	}
	return invited
}

// Invitee is an invited server's local state, as the accept trial reads it.
type Invitee struct {
	U      float64 // CPU utilization (demand / capacity)
	CapMHz float64 // CPU capacity
	RAMU   float64 // memory utilization
	RAMMB  float64 // memory capacity; 0 leaves memory out of the trial
	Grace  bool    // inside the post-activation grace period (InGrace)
}

// Round is one invitation round's acceptance test: fa under the round's
// threshold ta — fa's own Ta, or HighMigTa for a high migration — built once
// by Core.Round and applied to every invitee.
type Round struct {
	k  *Core
	ta float64
	fa AssignProbFunc
	ok bool // fa could be built under ta (false only for ta outside (0, 1])
}

// Round returns the acceptance test of a round under threshold ta.
func (k *Core) Round(ta float64) Round {
	r := Round{k: k, ta: ta, fa: k.fa, ok: true}
	//ecolint:allow float-eq — ta is fa.Ta copied verbatim unless a high migration tightened it, so exact inequality means a real override
	if ta != k.fa.Ta {
		tightened, err := k.fa.WithThreshold(ta)
		r.fa, r.ok = tightened, err == nil
	}
	return r
}

// Accept is the trial invited server id runs on an invitation for a VM of
// demandMHz and ramMB (§II, Fig. 1). The VM must fit under the round's
// threshold: u + demand/capacity <= ta and, with the §V extension on and the
// server modelling memory, ramU + ramMB/memory <= RAM.Ta. A server in its
// grace period then accepts outright (§IV). Any other runs the Bernoulli
// trial on fa(u) under ta or, with memory modelled, the configured §V
// strategy: AllTrials draws on CPU then memory and needs both;
// CriticalPlusConstraints draws once, on the resource closer to its
// threshold.
//
// The draws come from the server's own stream, st's entry id, which is
// derived only when a trial runs — so a driver that derives streams on
// first use derives only those its trials draw from, the set a checkpoint
// captures.
func (r *Round) Accept(st *Streams, id int, demandMHz, ramMB float64, s Invitee) bool {
	if s.U+demandMHz/s.CapMHz > r.ta {
		return false
	}
	k := r.k
	mem := k.RAM != nil && s.RAMMB > 0
	if mem && s.RAMU+ramMB/s.RAMMB > k.RAM.Ta {
		return false
	}
	if s.Grace {
		return true
	}
	if !r.ok {
		return false // unreachable: Ta' > 0 whenever u > Th
	}
	src := st.Get(id)
	if !mem {
		return src.Bernoulli(r.fa.Eval(s.U))
	}
	if k.RAM.Strategy == CriticalPlusConstraints {
		// The other resource's threshold was enforced above as a constraint.
		if s.RAMU/k.faRAM.Ta > s.U/r.fa.Ta {
			return src.Bernoulli(k.faRAM.Eval(s.RAMU))
		}
		return src.Bernoulli(r.fa.Eval(s.U))
	}
	return src.Bernoulli(r.fa.Eval(s.U)) && src.Bernoulli(k.faRAM.Eval(s.RAMU))
}

// ScanAction is one active server's outcome of a monitoring tick.
type ScanAction uint8

const (
	ScanNone      ScanAction = iota // nothing to do
	ScanHibernate                   // empty past its grace period: power down
	ScanLow                         // under Tl: request a consolidation migration
	ScanHigh                        // over Th: request an overload-relief migration
)

// Scan is an active server's monitoring decision (§II: each server checks
// whether its utilization lies between Tl and Th). An empty server
// hibernates once its grace period is over. A loaded one at utilization u
// below Tl and past its grace period requests a low migration with
// probability f_l(u); one above Th requests a high migration with
// probability f_h(u). The trial draws on src, the server's own stream; an
// empty server draws nothing, so src may then be nil.
func (k *Core) Scan(src *rng.Source, numVMs int, u float64, now, activatedAt time.Duration) ScanAction {
	grace := k.InGrace(now, activatedAt)
	if numVMs == 0 {
		if grace {
			return ScanNone
		}
		return ScanHibernate
	}
	switch {
	case u < k.Tl && !grace:
		if src.Bernoulli(MigrateLowProb(u, k.Tl, k.Alpha)) {
			return ScanLow
		}
	case u > k.Th:
		if src.Bernoulli(MigrateHighProb(u, k.Th, k.Beta)) {
			return ScanHigh
		}
	}
	return ScanNone
}

// MigrationVM picks the VM a server migrates once its scan trial fired
// (§II), from vms, the caller's ID-sorted candidates. A low migration takes
// one uniformly. A high migration takes one uniformly among those whose
// demand alone brings the server, at utilization u and capacity capMHz,
// back under Th — and the largest when none does (later trials migrate
// more). Draws on src, the server's stream; nil when vms is empty.
func (k *Core) MigrationVM(src *rng.Source, vms []*trace.VM, now time.Duration, u, capMHz float64, high bool) *trace.VM {
	if len(vms) == 0 {
		return nil
	}
	if !high {
		return vms[src.Intn(len(vms))]
	}
	need := (u - k.Th) * capMHz
	if i := pickFit(src, len(vms), func(i int) bool { return vms[i].DemandAt(now) >= need }); i >= 0 {
		return vms[i]
	}
	largest := vms[0]
	for _, v := range vms[1:] {
		if v.DemandAt(now) > largest.DemandAt(now) {
			largest = v
		}
	}
	return largest
}

// HighMigTa is the tightened acceptance threshold of a high migration off a
// server at utilization u: §II's Ta' = min(0.9·u, Ta). Any acceptor ends up
// less loaded than the source was, so the VM cannot ping-pong.
func (k *Core) HighMigTa(u float64) float64 {
	ta := 0.9 * u
	if ta > k.Ta {
		ta = k.Ta
	}
	return ta
}

// Wake is the manager's wake choice once a round found no acceptor (§II:
// the manager wakes up an inactive server): uniformly on mgr among the n
// hibernated candidates — candidate i has spec(i) — that fit a VM of
// demandMHz under the round's threshold ta (demand <= ta·capacity) and,
// with the §V extension on, its ramMB under RAM.Ta. It returns the chosen
// index, or -1, drawing nothing, when no candidate fits.
func (k *Core) Wake(mgr *rng.Source, n int, spec func(i int) dc.Spec, demandMHz, ramMB, ta float64) int {
	return pickFit(mgr, n, func(i int) bool {
		sp := spec(i)
		fitsRAM := k.RAM == nil || sp.RAMMB <= 0 || ramMB <= k.RAM.Ta*sp.RAMMB
		return demandMHz <= ta*sp.CapacityMHz() && fitsRAM
	})
}

// Largest returns the index of the candidate with the most CPU capacity
// among n (the first on ties), or -1 when n is 0: the wake of last resort
// for a VM that fits no hibernated server.
func Largest(n int, spec func(i int) dc.Spec) int {
	best, bestMHz := -1, 0.0
	for i := 0; i < n; i++ {
		if c := spec(i).CapacityMHz(); best < 0 || c > bestMHz {
			best, bestMHz = i, c
		}
	}
	return best
}

// LeastUtilized is the saturation fallback: when nobody accepts and nothing
// can be woken the VM still has to run, so it goes to the active server
// with the lowest utilization at now (the first on ties). It returns that
// server's index in servers and its utilization, or -1 when none is active.
func LeastUtilized(servers []*dc.Server, now time.Duration) (int, float64) {
	best, bestU := -1, 0.0
	for i, s := range servers {
		if s.State() != dc.Active {
			continue
		}
		if u := s.UtilizationAt(now); best < 0 || u < bestU {
			best, bestU = i, u
		}
	}
	return best, bestU
}

// pickFit draws uniformly on src among the indices i < n that satisfy fit
// — one Intn over their count, as if they had been collected first — and
// returns the chosen one, or -1, drawing nothing, when none does.
func pickFit(src *rng.Source, n int, fit func(i int) bool) int {
	count := 0
	for i := 0; i < n; i++ {
		if fit(i) {
			count++
		}
	}
	if count == 0 {
		return -1
	}
	pick := src.Intn(count)
	for i := 0; i < n; i++ {
		if !fit(i) {
			continue
		}
		if pick == 0 {
			return i
		}
		pick--
	}
	return -1 // unreachable: pick < count
}
