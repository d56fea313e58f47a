// Package protocol runs ecoCloud's assignment procedure as the distributed
// message exchange the paper's Fig. 1 depicts, on the netsim fabric:
//
//	manager --INVITE(vm demand, Ta)--> servers     (broadcast)
//	servers --ACCEPT/REJECT-->         manager     (Bernoulli trial on local u)
//	manager --ASSIGN(vm)-->            one acceptor
//	manager --WAKE+ASSIGN(vm)-->       a hibernated server (if nobody accepted)
//
// and, when migration scanning is enabled, the migration procedure too:
//
//	server  --MIGREQ(vm, kind, u)-->   manager     (local Bernoulli on f_l/f_h)
//	manager --INVITE(Ta')-->           servers     (tightened round, source excluded)
//	manager --MIGRATE(dest)-->         source
//	source  --TRANSFER(vm)-->          dest        (RAM-sized message: live migration)
//
// The cluster driver (internal/cluster) abstracts this round into a
// function call; this package makes the messages, their latency and their
// count explicit, so the paper's scalability story — broadcast invitations
// are cheap on a data-center fabric (footnote 1), and decisions stay local —
// can be measured: messages and microseconds per placement as the fleet
// grows, under full broadcast, static groups, random subsets, and the
// silent-reject variant where only available servers answer.
package protocol

import (
	"fmt"
	"time"

	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config parameterizes the protocol cluster.
type Config struct {
	// Ta, P and Grace follow ecocloud.Config semantics, and so do
	// InviteGroups and InviteSubset: who receives each invitation (every
	// active server by default, §II; one static group per round, rotating,
	// per footnote 1; or a uniform random subset).
	Ta    float64
	P     float64
	Grace time.Duration

	InviteGroups int
	InviteSubset int

	// SilentReject drops REJECT replies: only available servers answer, and
	// the manager closes the round after decisionWindow instead of counting
	// replies. Fewer messages, bounded extra latency.
	SilentReject bool

	// Migration procedure (off unless EnableMigration). Tl/Th/Alpha/Beta
	// follow ecocloud.Config; ScanInterval is the local monitoring cadence;
	// TransferBytes sizes the live-migration TRANSFER message (VM RAM), so
	// migration latency reflects moving gigabytes, not a control message.
	EnableMigration bool
	Tl, Th          float64
	Alpha, Beta     float64
	ScanInterval    time.Duration
	TransferBytes   int

	Latency netsim.LatencyModel

	// Impairments makes the fabric lossy (independent per-delivery drop and
	// duplication, see netsim.Impairments). The zero value is a perfect
	// fabric and changes nothing.
	Impairments netsim.Impairments

	// Fault tolerance. All three default to zero (disabled): on a perfect
	// fabric with no crash injection nothing is ever lost and the watchdogs
	// would never fire, so the protocol behaves exactly as before.
	//
	// RoundTimeout closes a reply-counted round after a deadline even when
	// replies are missing (lost on the wire, or the invitee crashed). It is
	// required whenever replies can be lost and SilentReject is off;
	// otherwise the round waits forever and its VM never places.
	RoundTimeout time.Duration
	// AssignRetry arms a manager-side watchdog per placement attempt: if the
	// VM is still not hosted after this delay (assign lost, wake failed, or
	// the assignee crashed) and has not expired, the manager runs a fresh
	// round.
	AssignRetry time.Duration
	// MigTimeout expires a migration that never cut over (lost MIGREQ,
	// MIGRATE or TRANSFER, or a crashed participant), releasing the VM for
	// future scans.
	MigTimeout time.Duration

	// Workers shards the migration scan's per-server decision phase (demand
	// read + Bernoulli trial on the server's private stream) across an
	// internal/par pool; below 2 the pool runs the same spans inline. The
	// hibernations and MIGREQ sends those decisions trigger are applied
	// afterwards in server-index order, so message traffic — and therefore
	// every downstream draw and event — is bit-identical at every worker
	// count.
	Workers int

	// Obs, when set, receives protocol telemetry: placements, wake-ups,
	// migrations by kind, saturations, placement latency, plus the engine
	// metrics and — with a journal attached — data-center mutation events.
	// Nil (the default) costs the message handlers nothing.
	Obs *obs.Recorder `json:"-"`
}

// Message sizes in bytes (headers + payload), for the bandwidth share, and
// the silent-reject round's decision window.
const (
	inviteSize     = 64
	replySize      = 48
	assignSize     = 256
	decisionWindow = 500 * time.Microsecond
)

// DefaultConfig returns the §II protocol on a 10 GbE fabric.
func DefaultConfig() Config {
	return Config{
		Ta:            0.90,
		P:             3,
		Grace:         30 * time.Minute,
		Latency:       netsim.DefaultLatency(),
		Tl:            0.50,
		Th:            0.95,
		Alpha:         0.25,
		Beta:          0.25,
		ScanInterval:  5 * time.Minute,
		TransferBytes: 4 << 30, // 4 GiB of VM RAM
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if _, err := ecocloud.NewAssignProb(c.Ta, c.P); err != nil {
		return err
	}
	switch {
	case c.Grace < 0:
		return fmt.Errorf("protocol: Grace = %v", c.Grace)
	case c.InviteGroups < 0 || c.InviteSubset < 0:
		return fmt.Errorf("protocol: InviteGroups = %d, InviteSubset = %d", c.InviteGroups, c.InviteSubset)
	case c.RoundTimeout < 0 || c.AssignRetry < 0 || c.MigTimeout < 0:
		return fmt.Errorf("protocol: negative fault-tolerance timeout")
	case c.Workers < 0:
		return fmt.Errorf("protocol: Workers = %d", c.Workers)
	case c.Impairments.DropProb > 0 && !c.SilentReject && c.RoundTimeout <= 0:
		return fmt.Errorf("protocol: a lossy fabric with reply counting needs a RoundTimeout")
	}
	if err := c.Impairments.Validate(); err != nil {
		return err
	}
	if c.EnableMigration {
		switch {
		case c.Tl < 0 || c.Tl >= c.Th || c.Th >= 1:
			return fmt.Errorf("protocol: migration thresholds Tl=%v Th=%v", c.Tl, c.Th)
		case c.Alpha <= 0 || c.Beta <= 0:
			return fmt.Errorf("protocol: migration shapes alpha=%v beta=%v", c.Alpha, c.Beta)
		case c.ScanInterval <= 0:
			return fmt.Errorf("protocol: ScanInterval = %v", c.ScanInterval)
		case c.TransferBytes <= 0:
			return fmt.Errorf("protocol: TransferBytes = %d", c.TransferBytes)
		}
	}
	return nil
}

// Core returns the ecoCloud decision functions for this configuration: the
// invitee selection, accept trial, scan decision, migration-VM pick, Ta' and
// wake choice every protocol server and the manager decide by.
func (c Config) Core() (ecocloud.Core, error) {
	return ecocloud.NewCore(ecocloud.Config{
		Ta: c.Ta, P: c.P, Grace: c.Grace,
		Tl: c.Tl, Th: c.Th, Alpha: c.Alpha, Beta: c.Beta,
		InviteGroups: c.InviteGroups, InviteSubset: c.InviteSubset,
	})
}

// Stats aggregates what the scalability experiment reports.
type Stats struct {
	Placements  int
	Wakes       int
	Saturations int

	TotalLatency time.Duration
	MaxLatency   time.Duration

	// Migration-procedure counters (EnableMigration only).
	MigrationsLow, MigrationsHigh int
	MigrationLatency              time.Duration // summed MIGREQ->placed
	MigrationsAborted             int           // no destination found

	// Fault-path counters. All stay zero on a perfect fabric without
	// crash injection.
	WakeReuses        int // wake+assigns piggybacked on a wake already in flight
	WakeFailures      int // wake commands the hardware never honored
	AssignsLost       int // assigns that arrived at a crashed server
	Replacements      int // watchdog-driven re-placement rounds
	MigrationsExpired int // migrations torn down by MigTimeout
}

// MeanLatency returns the mean placement latency (invite to placed).
func (s Stats) MeanLatency() time.Duration {
	if s.Placements == 0 {
		return 0
	}
	return s.TotalLatency / time.Duration(s.Placements)
}

// MeanMigrationLatency returns the mean MIGREQ-to-cutover latency over
// completed migrations, or 0 when none completed.
func (s Stats) MeanMigrationLatency() time.Duration {
	n := s.MigrationsLow + s.MigrationsHigh
	if n == 0 {
		return 0
	}
	return s.MigrationLatency / time.Duration(n)
}

// message payloads

// inviteReq is one round's invitation. It also holds the round's two
// possible replies: a server answers with a pointer to one of them, so a
// reply allocates nothing, and the manager reads who replied from
// Message.From. The round's first invitee in a process builds the
// acceptance test under ta, and every later one reuses it.
type inviteReq struct {
	roundID        int
	demand         float64
	ta             float64 // effective acceptance threshold for this round
	trial          ecocloud.Round
	built          bool // trial holds the acceptance test under ta
	accept, reject reply
}

// newInvite builds round roundID's invitation for a VM of demand under ta.
func newInvite(roundID int, demand, ta float64) *inviteReq {
	return &inviteReq{
		roundID: roundID, demand: demand, ta: ta,
		accept: reply{roundID: roundID, accept: true},
		reject: reply{roundID: roundID},
	}
}

type reply struct {
	roundID int
	accept  bool
}

type assignReq struct {
	vm    *trace.VM
	wake  bool
	start time.Duration // when the round began, for latency accounting
}

type migReq struct {
	serverID int
	vmID     int
	kind     string // cluster-style "low"/"high"
	u        float64
}

type migrateOrder struct {
	vmID   int
	destID int
	kind   string
	start  time.Duration
}

type transfer struct {
	vmID  int
	kind  string
	start time.Duration
}

// round is the manager's state for one invitation round. decide runs when
// the round closes (all replies in, or the decision window expires).
type round struct {
	id       int
	start    time.Duration
	expected int
	replies  int
	accepts  []int    // accepting server IDs, sized for every invitee
	seen     []uint64 // bitset of replied server IDs, so duplicated replies count once
	closed   bool
	decide   func(*round)
}

const managerNode netsim.NodeID = 0

func serverNode(id int) netsim.NodeID { return netsim.NodeID(id + 1) }

// nodeServer is serverNode's inverse: the server ID of a server node.
func nodeServer(n netsim.NodeID) int { return int(n) - 1 }

// Cluster wires the manager, the servers, the network and the data center.
type Cluster struct {
	cfg  Config
	core ecocloud.Core

	eng *sim.Engine
	// net is the message fabric every send goes through: the netsim fabric
	// New builds, or a serving process's stand-in (NewServing).
	net Transport
	dc  *dc.DataCenter

	// A cluster spread over processes (remote.go) has fab set on node 0
	// and serving set on every other process; in one process both are nil.
	// vmTable finds a VM by ID for either side.
	fab     *fabric
	serving *serving
	vmTable []*trace.VM

	mgr     *rng.Source
	servers ecocloud.Streams

	rounds    map[int]*round
	nextRound int
	nextGroup int // Core.Invitees' group cursor
	// active and invitees are inviteTargets' scratch, reused every round:
	// the active servers, and the node IDs the round's invitation goes to.
	active   []*dc.Server
	invitees []netsim.NodeID
	// fresh, reusable and pending are wakeAssign's candidate lists, reused
	// every call (migrationWake reuses fresh for the hibernated servers);
	// freshSpec reads fresh[i]'s spec for Core.Wake and Largest, bound once
	// so a call builds no closure.
	fresh, reusable, pending []*dc.Server
	freshSpec                func(i int) dc.Spec

	// inflight marks VMs with a migration in progress so the periodic scan
	// never double-migrates them.
	inflight map[int]bool
	// pendingMig is the manager's record of open migration procedures
	// (VM ID -> MIGREQ arrival time): it dedups duplicated MIGREQs and is
	// dropped cleanly when a migration aborts, expires or completes.
	pendingMig map[int]time.Duration
	// pendingWakes tracks hibernated servers with a wake+assign in flight.
	// A pending server still reports Hibernated, so without this record a
	// second placement deciding inside the delivery window would wake it
	// "again" (double-counted Wakes) or, worse, wake a second server for
	// load the first could carry.
	pendingWakes map[int]*pendingWake

	gate     WakeGate
	onPlaced func(vmID int, now time.Duration)

	// pool shards the migration scan's decision phase (inline below two
	// workers); scan is its per-tick decision buffer, index-parallel to
	// dc.Servers.
	pool *par.Pool
	scan []scanDecision
	// vms is scratch for a server's VM list when it picks what to migrate
	// and when the manager looks a VM up on its host.
	vms []*trace.VM

	Stats Stats
}

// scanDecision is one server's outcome of the migration scan's decision
// phase; the apply phase folds these in server-index order.
type scanDecision struct {
	act ecocloud.ScanAction
	u   float64
}

// pendingWake is the manager's book entry for one in-flight wake: how much
// demand has been promised to the server and by how many assignments.
type pendingWake struct {
	reserved float64
	count    int
}

// New builds a protocol cluster over the given fleet on the simulated
// netsim fabric. Servers start hibernated, exactly as in the cluster driver.
func New(cfg Config, specs []dc.Spec, seed uint64) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	master := rng.New(seed)
	eng := sim.New()
	nsim := netsim.New(eng, cfg.Latency, master.Split("net"))
	nsim.SetImpairments(cfg.Impairments)
	return newOn(cfg, specs, master, eng, nsim)
}

// newOn is the shared constructor body: wire the manager, the servers, the
// fabric and the data center together.
func newOn(cfg Config, specs []dc.Spec, master *rng.Source, eng *sim.Engine, tr Transport) (*Cluster, error) {
	core, err := cfg.Core()
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:          cfg,
		core:         core,
		eng:          eng,
		net:          tr,
		dc:           dc.New(specs),
		mgr:          master.Split("manager"),
		servers:      ecocloud.NewStreams(master, len(specs)),
		rounds:       make(map[int]*round),
		inflight:     make(map[int]bool),
		pendingMig:   make(map[int]time.Duration),
		pendingWakes: make(map[int]*pendingWake),
	}
	c.freshSpec = func(i int) dc.Spec { return c.fresh[i].Spec }
	c.net.Register(managerNode, c.onManagerMessage)
	for _, s := range c.dc.Servers {
		s := s
		c.net.Register(serverNode(s.ID), func(m netsim.Message) { c.onServerMessage(s, m) })
	}
	c.scan = make([]scanDecision, len(c.dc.Servers))
	c.pool = par.New(cfg.Workers)
	if c.pool.Parallel() {
		// Pre-derive every server's private stream: the streams are keyed by
		// label and ID (creation order never matters), and filling the
		// fleet-sized table up front means the parallel scan phase only ever
		// reads it.
		for _, s := range c.dc.Servers {
			c.serverSrc(s.ID)
		}
	}
	if cfg.Obs.Enabled() {
		eng.SetRecorder(cfg.Obs)
		if cfg.Obs.Journaling() {
			c.dc.SetJournal(func(e dc.Event) {
				cfg.Obs.Emit(eng.Now(), string(e.Kind), e.Fields())
			})
		}
	}
	return c, nil
}

// Engine exposes the simulation engine so callers can schedule arrivals.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Close releases the scan worker pool (a no-op below two workers). Callers
// that set Config.Workers must Close the cluster when the run is over.
func (c *Cluster) Close() { c.pool.Close() }

// DC exposes the data center for inspection and pre-loading.
func (c *Cluster) DC() *dc.DataCenter { return c.dc }

// MessagesSent returns the number of wire transmissions so far.
func (c *Cluster) MessagesSent() int { sent, _ := c.net.Stats(); return sent }

// BytesSent returns the bytes delivered so far.
func (c *Cluster) BytesSent() int64 { _, bytes := c.net.Stats(); return bytes }

// serverSrc returns server id's private stream, deriving it on first use.
func (c *Cluster) serverSrc(id int) *rng.Source { return c.servers.Get(id) }

// PlaceVM starts one invitation round for vm at the current virtual time.
func (c *Cluster) PlaceVM(vm *trace.VM) {
	now := c.eng.Now()
	start := now
	if c.cfg.AssignRetry > 0 {
		c.eng.After(c.cfg.AssignRetry, "assign-retry", func(*sim.Engine) { c.retryPlace(vm) })
	}
	opened := c.openRound(c.core.Ta, vm.DemandAt(now), -1, func(r *round) {
		if len(r.accepts) > 0 {
			id := r.accepts[c.mgr.Intn(len(r.accepts))]
			c.net.Send(netsim.Message{
				From: managerNode, To: serverNode(id), Kind: "assign",
				Payload: assignReq{vm: vm, start: start}, Size: assignSize,
			})
			return
		}
		c.wakeAssign(vm, start)
	})
	if !opened {
		// Nobody awake: wake a server directly.
		c.wakeAssign(vm, now)
	}
}

// retryPlace is the AssignRetry watchdog body: re-run placement for a VM
// whose assignment never landed — the assign was dropped, the wake failed,
// or the assignee crashed with the VM in flight.
func (c *Cluster) retryPlace(vm *trace.VM) {
	if _, ok := c.dc.HostOf(vm.ID); ok {
		return
	}
	if c.eng.Now() >= vm.End {
		return // expired while unplaced; the fault accounting owns the loss
	}
	c.Stats.Replacements++
	c.cfg.Obs.Count("protocol.replacements", 1)
	c.PlaceVM(vm)
}

// openRound broadcasts one invitation under the effective threshold ta,
// excluding server excludeID (-1 for none), and arranges for decide to run
// at close. It reports false (and calls nothing) when no server can be
// invited at all.
func (c *Cluster) openRound(ta, demand float64, excludeID int, decide func(*round)) bool {
	now := c.eng.Now()
	nodes := c.inviteTargets(excludeID)
	if len(nodes) == 0 {
		return false
	}
	c.nextRound++
	r := &round{
		id: c.nextRound, start: now, expected: len(nodes),
		accepts: make([]int, 0, len(nodes)),
		seen:    make([]uint64, (len(c.dc.Servers)+63)/64), decide: decide,
	}
	c.rounds[r.id] = r
	c.net.Broadcast(managerNode, nodes, "invite", newInvite(r.id, demand, ta), inviteSize)
	if c.cfg.SilentReject {
		c.eng.After(decisionWindow, "decision-window", func(*sim.Engine) {
			c.closeRound(r)
		})
	} else if c.cfg.RoundTimeout > 0 {
		// Reply counting hangs if an invitee crashed or its reply was lost;
		// the timeout decides on whatever arrived.
		c.eng.After(c.cfg.RoundTimeout, "round-timeout", func(*sim.Engine) {
			c.closeRound(r)
		})
	}
	return true
}

// inviteTargets selects the round's invitees through Core.Invitees, never
// server excludeID (-1 for none), and returns their node IDs. The result
// lives in c.invitees until the next call.
func (c *Cluster) inviteTargets(excludeID int) []netsim.NodeID {
	c.active = c.dc.AppendActive(c.active[:0])
	nodes := c.invitees[:0]
	for _, s := range c.core.Invitees(c.mgr, c.active, excludeID, &c.nextGroup) {
		nodes = append(nodes, serverNode(s.ID))
	}
	c.invitees = nodes
	return nodes
}

// onServerMessage handles invite, assign, migrate and transfer messages at
// a server.
func (c *Cluster) onServerMessage(s *dc.Server, m netsim.Message) {
	now := c.eng.Now()
	switch m.Kind {
	case "invite":
		if s.State() == dc.Failed {
			return // crashed after the invitation went out: dead servers are silent
		}
		req := m.Payload.(*inviteReq)
		if !req.built {
			req.trial, req.built = c.core.Round(req.ta), true
		}
		inv := ecocloud.Invitee{U: s.UtilizationAt(now), CapMHz: s.CapacityMHz(), Grace: c.core.InGrace(now, s.ActivatedAt())}
		accept := req.trial.Accept(&c.servers, s.ID, req.demand, 0, inv)
		if accept || !c.cfg.SilentReject {
			rep := &req.reject
			if accept {
				rep = &req.accept
			}
			c.net.Send(netsim.Message{
				From: serverNode(s.ID), To: managerNode, Kind: "reply",
				Payload: rep, Size: replySize,
			})
		}
	case "assign":
		req := m.Payload.(assignReq)
		if _, ok := c.dc.HostOf(req.vm.ID); ok {
			return // a duplicated assign, or a retry already landed the VM
		}
		if req.wake && s.State() == dc.Hibernated {
			ok, delay := c.wakeOutcome(s.ID)
			if !ok {
				c.book(bookWrite{op: opWakeFailed, id: s.ID})
				return // the AssignRetry watchdog re-places the VM
			}
			if delay > 0 {
				c.eng.After(delay, "wake-delay", func(*sim.Engine) { c.finishAssign(s, req) })
				return
			}
		}
		c.finishAssign(s, req)
	case "migrate":
		// Manager picked a destination for one of this server's VMs: start
		// the live transfer. The VM keeps running here until cutover (the
		// paper: migrations are asynchronous and smooth).
		order := m.Payload.(migrateOrder)
		if host, ok := c.dc.HostOf(order.vmID); !ok || host != s {
			// VM departed while the round was in flight, or a crash already
			// re-placed it elsewhere: this server has nothing to transfer.
			c.book(bookWrite{op: opDropMigration, id: order.vmID})
			return
		}
		c.net.Send(netsim.Message{
			From: serverNode(s.ID), To: serverNode(order.destID), Kind: "transfer",
			Payload: transfer{vmID: order.vmID, kind: order.kind, start: order.start},
			Size:    c.cfg.TransferBytes,
		})
	case "transfer":
		tr := m.Payload.(transfer)
		host, ok := c.dc.HostOf(tr.vmID)
		if !ok || host == s {
			c.book(bookWrite{op: opDropMigration, id: tr.vmID})
			return // departed mid-copy, or already here (duplicated transfer)
		}
		if s.State() == dc.Failed {
			// Destination crashed mid-copy: the VM keeps running at the
			// source, the migration is simply lost.
			c.book(bookWrite{op: opAbortMigration, id: tr.vmID})
			return
		}
		if s.State() == dc.Hibernated {
			// Defensive cutover: the wake command races the (much slower)
			// transfer; arriving first is overwhelmingly likely but not
			// guaranteed under jitter — and the wake may have failed outright.
			if ok, _ := c.wakeOutcome(s.ID); !ok {
				c.book(bookWrite{op: opWakeFailed, id: s.ID})
				c.book(bookWrite{op: opAbortMigration, id: tr.vmID})
				return
			}
			if err := c.dc.Activate(s, now); err != nil {
				panic(fmt.Sprintf("protocol: cutover wake of server %d: %v", s.ID, err))
			}
		}
		if err := c.dc.Migrate(tr.vmID, s); err != nil {
			panic(fmt.Sprintf("protocol: migrating VM %d to server %d: %v", tr.vmID, s.ID, err))
		}
		c.book(bookWrite{op: opMigrated, id: tr.vmID, start: tr.start, high: tr.kind == "high"})
	case "wake":
		if s.State() != dc.Hibernated {
			return // already up, crashed, or a duplicated wake
		}
		ok, delay := c.wakeOutcome(s.ID)
		if !ok {
			c.book(bookWrite{op: opWakeFailed, id: s.ID})
			return // the cutover aborts when it finds the destination down
		}
		if delay > 0 {
			c.eng.After(delay, "wake-delay", func(*sim.Engine) {
				if s.State() != dc.Hibernated {
					return
				}
				if err := c.dc.Activate(s, c.eng.Now()); err != nil {
					panic(fmt.Sprintf("protocol: waking server %d: %v", s.ID, err))
				}
			})
			return
		}
		if err := c.dc.Activate(s, now); err != nil {
			panic(fmt.Sprintf("protocol: waking server %d: %v", s.ID, err))
		}
	default:
		panic(fmt.Sprintf("protocol: server %d got unexpected %q", s.ID, m.Kind))
	}
}

// onManagerMessage handles reply and migreq messages at the manager.
func (c *Cluster) onManagerMessage(m netsim.Message) {
	switch m.Kind {
	case "reply":
		rep := m.Payload.(*reply)
		r, ok := c.rounds[rep.roundID]
		if !ok || r.closed {
			return // late reply after a silent-reject window closed: ignored
		}
		id := nodeServer(m.From)
		word, bit := id/64, uint64(1)<<(id%64)
		if r.seen[word]&bit != 0 {
			return // duplicated reply counts once
		}
		r.seen[word] |= bit
		r.replies++
		if rep.accept {
			r.accepts = append(r.accepts, id)
		}
		if !c.cfg.SilentReject && r.replies == r.expected {
			c.closeRound(r)
		}
	case "migreq":
		c.onMigReq(m.Payload.(migReq))
	default:
		panic(fmt.Sprintf("protocol: manager got unexpected %q", m.Kind))
	}
}

// closeRound runs the round's decision exactly once.
func (c *Cluster) closeRound(r *round) {
	if r.closed {
		return
	}
	r.closed = true
	delete(c.rounds, r.id)
	r.decide(r)
}

// wakeAssign picks a hibernated server that fits the VM and sends it a
// combined wake+assign ("the manager wakes up an inactive server and
// requests it to run the new VM", §II). Servers with a wake already in
// flight still report Hibernated, so they are tracked in pendingWakes and
// never woken twice: a second placement deciding inside the delivery window
// piggybacks on the in-flight wake if the reserved demand leaves room, and
// only wakes a fresh server otherwise. With nothing to wake, the VM lands
// on the least-utilized active server and a saturation event is recorded.
func (c *Cluster) wakeAssign(vm *trace.VM, start time.Duration) {
	now := c.eng.Now()
	demand := vm.DemandAt(now)
	fresh, reusable, pending := c.fresh[:0], c.reusable[:0], c.pending[:0]
	for _, s := range c.dc.Servers {
		if s.State() != dc.Hibernated {
			delete(c.pendingWakes, s.ID) // lazy cleanup of stale entries
			continue
		}
		if pw, ok := c.pendingWakes[s.ID]; ok {
			pending = append(pending, s)
			if pw.reserved+demand <= c.core.Ta*s.CapacityMHz() {
				reusable = append(reusable, s)
			}
			continue
		}
		fresh = append(fresh, s)
	}
	c.fresh, c.reusable, c.pending = fresh, reusable, pending
	var wake *dc.Server
	isFresh := false
	if i := c.core.Wake(c.mgr, len(fresh), c.freshSpec, demand, 0, c.core.Ta); i >= 0 {
		// A fresh server that fits under Ta.
		wake, isFresh = fresh[i], true
	} else if len(reusable) > 0 {
		// No fresh fit, but an in-flight wake has reserved room to spare.
		wake = reusable[c.mgr.Intn(len(reusable))]
	} else if i := ecocloud.Largest(len(fresh), c.freshSpec); i >= 0 {
		// Nothing fits anywhere: the largest fresh server limits the damage.
		wake, isFresh = fresh[i], true
	} else if len(pending) > 0 {
		// Only pending wakes remain: overcommit one rather than piling onto
		// an already-running server — the machine is coming up empty anyway.
		wake = pending[c.mgr.Intn(len(pending))]
		c.Stats.Saturations++
		c.cfg.Obs.Count("protocol.saturations", 1)
	}
	if wake != nil {
		c.reserveWake(wake.ID, demand, isFresh)
		c.net.Send(netsim.Message{
			From: managerNode, To: serverNode(wake.ID), Kind: "assign",
			Payload: assignReq{vm: vm, wake: true, start: start}, Size: assignSize,
		})
		return
	}
	// Total saturation: degrade onto the least-utilized active server.
	c.Stats.Saturations++
	c.cfg.Obs.Count("protocol.saturations", 1)
	best, _ := ecocloud.LeastUtilized(c.dc.Servers, now)
	if best < 0 {
		panic(fmt.Sprintf("protocol: no server at all for VM %d", vm.ID))
	}
	c.net.Send(netsim.Message{
		From: managerNode, To: serverNode(best), Kind: "assign",
		Payload: assignReq{vm: vm, start: start}, Size: assignSize,
	})
}

// reserveWake books demand against a wake of server id — a fresh one
// (counted in Wakes) or one already in flight (counted in WakeReuses).
func (c *Cluster) reserveWake(id int, demand float64, fresh bool) {
	pw := c.pendingWakes[id]
	if pw == nil {
		pw = &pendingWake{}
		c.pendingWakes[id] = pw
	}
	pw.reserved += demand
	pw.count++
	if fresh {
		c.Stats.Wakes++
		c.cfg.Obs.Count("protocol.wakeups", 1)
	} else {
		c.Stats.WakeReuses++
		c.cfg.Obs.Count("protocol.wake_reuses", 1)
	}
}

// finishAssign runs an assignment once its server is up — immediately in
// the common case, after the power-on delay when the wake gate imposed one.
// Every early return re-checks the world because it may have changed during
// that delay.
func (c *Cluster) finishAssign(s *dc.Server, req assignReq) {
	now := c.eng.Now()
	if _, ok := c.dc.HostOf(req.vm.ID); ok {
		c.book(bookWrite{op: opCompleteWake, id: s.ID})
		return // a duplicate or a retry landed the VM first
	}
	if s.State() == dc.Failed {
		// Crashed with the assignment in flight: the VM is running nowhere;
		// the AssignRetry watchdog re-places it. pendingWakes was already
		// cleared by the crash.
		c.book(bookWrite{op: opAssignLost, id: req.vm.ID})
		return
	}
	if now >= req.vm.End {
		c.book(bookWrite{op: opCompleteWake, id: s.ID})
		return // the VM expired while the wake dragged on
	}
	if s.State() == dc.Hibernated {
		if err := c.dc.Activate(s, now); err != nil {
			panic(fmt.Sprintf("protocol: wake-assign on server %d: %v", s.ID, err))
		}
	}
	if err := c.dc.Place(req.vm, s); err != nil {
		panic(fmt.Sprintf("protocol: placing VM %d on server %d: %v", req.vm.ID, s.ID, err))
	}
	c.book(bookWrite{op: opCompleteWake, id: s.ID})
	c.book(bookWrite{op: opPlaced, id: req.vm.ID, start: req.start})
}

// bookWrite is one write a server-side handler makes to the manager's
// books. Every such write goes through book, the seam between the two
// sides: in one process it applies at once; in a served process (remote.go)
// it is recorded, in order, for node 0 to apply. A timer the server side
// arms for the manager crosses the seam as a write too, never as a closure.
type bookWrite struct {
	op    bookOp
	id    int           // the server (wake ops) or the VM (the others)
	start time.Duration // opPlaced, opMigrated: when the round or the migration began
	high  bool          // opMigrated: a high migration
}

type bookOp uint8

const (
	opCompleteWake   bookOp = iota // an assignment landed on server id, or became moot
	opWakeFailed                   // server id never came up
	opPlaced                       // VM id landed
	opAssignLost                   // VM id's assign reached a crashed server
	opDropMigration                // VM id departed or moved before its migration ran
	opAbortMigration               // VM id's migration failed at the destination
	opMigrated                     // VM id cut over
	opMigRequested                 // a scan asked to migrate VM id: mark it in flight, arm mig-timeout
)

// book routes one server-side write to the manager's books.
func (c *Cluster) book(w bookWrite) {
	if c.serving != nil {
		c.serving.record(w)
		return
	}
	c.applyBook(w)
}

// applyBook applies one write to the manager's books.
func (c *Cluster) applyBook(w bookWrite) {
	switch w.op {
	case opCompleteWake:
		delete(c.pendingWakes, w.id)
	case opWakeFailed:
		c.wakeFailed(w.id)
	case opPlaced:
		now := c.eng.Now()
		c.recordPlacement(w.start, now)
		if c.onPlaced != nil {
			c.onPlaced(w.id, now)
		}
	case opAssignLost:
		c.Stats.AssignsLost++
		c.cfg.Obs.Count("protocol.assigns_lost", 1)
	case opDropMigration:
		delete(c.inflight, w.id)
		delete(c.pendingMig, w.id)
	case opAbortMigration:
		c.abortMigration(w.id)
	case opMigrated:
		delete(c.inflight, w.id)
		if w.high {
			c.Stats.MigrationsHigh++
			c.cfg.Obs.Count("protocol.migrations_high", 1)
		} else {
			c.Stats.MigrationsLow++
			c.cfg.Obs.Count("protocol.migrations_low", 1)
		}
		c.Stats.MigrationLatency += c.eng.Now() - w.start
		delete(c.pendingMig, w.id)
	case opMigRequested:
		c.inflight[w.id] = true
		if c.cfg.MigTimeout > 0 {
			vmID := w.id
			c.eng.After(c.cfg.MigTimeout, "mig-timeout", func(*sim.Engine) { c.expireMigration(vmID) })
		}
	default:
		panic(fmt.Sprintf("protocol: unknown book write %d", w.op))
	}
}

// wakeFailed records a wake command the hardware never honored and releases
// the server's pending-wake reservation so future placements treat it as
// fresh again.
func (c *Cluster) wakeFailed(id int) {
	delete(c.pendingWakes, id)
	c.Stats.WakeFailures++
	c.cfg.Obs.Count("protocol.wake_failures", 1)
}

// wakeOutcome consults the wake gate; without one, wakes always succeed
// instantly.
func (c *Cluster) wakeOutcome(id int) (bool, time.Duration) {
	if c.gate == nil {
		return true, 0
	}
	return c.gate.WakeOutcome(id)
}

// recordPlacement updates latency statistics when an assign lands: the
// placement latency spans from the round's first invitation to the VM
// actually running on its server.
func (c *Cluster) recordPlacement(start, now time.Duration) {
	lat := now - start
	c.Stats.Placements++
	c.Stats.TotalLatency += lat
	if lat > c.Stats.MaxLatency {
		c.Stats.MaxLatency = lat
	}
	c.cfg.Obs.Count("protocol.placements", 1)
	c.cfg.Obs.Observe("protocol.placement_latency", lat)
}

// StartMigrationScan arms the periodic local monitoring on every server
// (§II: "each server monitors its CPU utilization ... and checks if it is
// between two specified thresholds"). Each tick, every active server runs
// its Bernoulli trial locally and, on success, sends one MIGREQ to the
// manager. The scan also hibernates servers drained empty, mirroring the
// cluster driver. Requires EnableMigration.
func (c *Cluster) StartMigrationScan() {
	if !c.cfg.EnableMigration {
		panic("protocol: StartMigrationScan without EnableMigration")
	}
	c.eng.Every(c.cfg.ScanInterval, c.cfg.ScanInterval, "migration-scan", func(*sim.Engine) {
		c.scanTick(c.eng.Now())
	})
}

// RunDay runs one churn day of ws up to horizon: each VM arrives at its
// start and, if it ends before the horizon, departs at its end; the
// migration scan runs when EnableMigration is set. It then checks the data
// center's invariants. This is the day the protocol experiments and ecod
// run; a caller arms anything else it needs, such as a fault injector,
// first. It validates ws before it schedules anything (a Set checked where
// it was built passes at once), so a malformed VM fails the day instead of
// being invited and placed.
func (c *Cluster) RunDay(ws *trace.Set, horizon time.Duration) error {
	if err := ws.Validate(); err != nil {
		return err
	}
	for _, vm := range ws.VMs {
		c.eng.Schedule(vm.Start, "arrival", func(*sim.Engine) { c.PlaceVM(vm) })
		if vm.End < horizon {
			c.eng.Schedule(vm.End, "departure", func(*sim.Engine) {
				if _, ok := c.dc.HostOf(vm.ID); ok {
					if _, err := c.dc.Remove(vm.ID); err != nil {
						panic(fmt.Sprintf("protocol: departure of VM %d: %v", vm.ID, err))
					}
				}
			})
		}
	}
	if c.cfg.EnableMigration {
		c.StartMigrationScan()
	}
	c.eng.Run(horizon)
	if c.fab != nil {
		if err := c.fab.finish(); err != nil {
			return err
		}
	}
	return c.dc.CheckInvariants()
}

// scanTick is one migration scan, split into a fork-join decision phase and
// a sequential apply phase. Below two workers both run inline.
//
//   - Phase A (workers): each active server reads its own utilization (a
//     per-server demand-kernel mutation; no server is handed to two
//     workers) and runs Core.Scan on its private rng stream. A decision
//     depends only on that server's state, because the actions a scan takes
//     (hibernating a server, sending a MIGREQ whose delivery is scheduled
//     after the tick) never alter another server's utilization or streams.
//   - Phase B (caller, server-index order): hibernations and MIGREQ sends
//     fire in server-index order, so every per-server stream keeps its
//     trial-then-pick draw order and the network stream sees sends in the
//     same sequence at every worker count.
//
// Because a decision depends on its own server alone, the fleet can be
// scanned span by span in server order with the same result: a cluster
// spread over processes scans each process's span in turn.
func (c *Cluster) scanTick(now time.Duration) {
	if c.fab != nil {
		c.fab.scan(now)
		return
	}
	c.scanSpan(0, len(c.dc.Servers), now)
}

// scanSpan runs both phases of the scan over servers [lo, hi).
func (c *Cluster) scanSpan(lo, hi int, now time.Duration) {
	par.For(c.pool, hi-lo, func(j int) {
		i := lo + j
		s := c.dc.Servers[i]
		d := scanDecision{}
		if s.State() == dc.Active {
			var src *rng.Source
			if s.NumVMs() > 0 {
				// Streams are pre-derived when the pool is parallel, so
				// workers only read the table; inline, the first use derives.
				d.u, src = s.UtilizationAt(now), c.serverSrc(s.ID)
			}
			d.act = c.core.Scan(src, s.NumVMs(), d.u, now, s.ActivatedAt())
		}
		c.scan[i] = d
	})
	for i := lo; i < hi; i++ {
		s, d := c.dc.Servers[i], c.scan[i]
		switch d.act {
		case ecocloud.ScanHibernate:
			if err := c.dc.Hibernate(s); err != nil {
				panic(fmt.Sprintf("protocol: hibernating server %d: %v", s.ID, err))
			}
		case ecocloud.ScanLow:
			c.sendMigReq(s, now, d.u, "low")
		case ecocloud.ScanHigh:
			c.sendMigReq(s, now, d.u, "high")
		}
	}
}

// sendMigReq picks the VM to move (the §II selection rules) and asks the
// manager for a destination.
func (c *Cluster) sendMigReq(s *dc.Server, now time.Duration, u float64, kind string) {
	candidates := s.AppendVMs(c.vms[:0]) // ID-sorted
	c.vms = candidates
	n := 0
	for _, vm := range candidates {
		if !c.inflight[vm.ID] {
			candidates[n] = vm
			n++
		}
	}
	vm := c.core.MigrationVM(c.serverSrc(s.ID), candidates[:n], now, u, s.CapacityMHz(), kind == "high")
	if vm == nil {
		return
	}
	c.book(bookWrite{op: opMigRequested, id: vm.ID})
	c.net.Send(netsim.Message{
		From: serverNode(s.ID), To: managerNode, Kind: "migreq",
		Payload: migReq{serverID: s.ID, vmID: vm.ID, kind: kind, u: u},
		Size:    replySize,
	})
}

// abortMigration drops an open migration cleanly: the VM keeps running at
// its source, and its pending start never pollutes the latency sum.
func (c *Cluster) abortMigration(vmID int) {
	delete(c.inflight, vmID)
	delete(c.pendingMig, vmID)
	c.Stats.MigrationsAborted++
	c.cfg.Obs.Count("protocol.migrations_aborted", 1)
}

// expireMigration is the MigTimeout watchdog body: a migration still marked
// in flight after the deadline lost a message (or a participant) and is
// torn down so the scan can try again later.
func (c *Cluster) expireMigration(vmID int) {
	if !c.inflight[vmID] {
		return // completed, aborted or crashed away in time
	}
	delete(c.inflight, vmID)
	delete(c.pendingMig, vmID)
	c.Stats.MigrationsExpired++
	c.cfg.Obs.Count("protocol.migrations_expired", 1)
}

// onMigReq is the manager's side of the migration procedure: a tightened
// invitation round excluding the source; high migrations may wake a server,
// low migrations never do (§II's two differences).
func (c *Cluster) onMigReq(req migReq) {
	if _, open := c.pendingMig[req.vmID]; open {
		return // duplicated MIGREQ: a procedure is already running for this VM
	}
	host, ok := c.dc.HostOf(req.vmID)
	if !ok || host.ID != req.serverID {
		delete(c.inflight, req.vmID) // VM departed or already moved
		return
	}
	now := c.eng.Now()
	vm := c.findVM(host, req.vmID)
	if vm == nil {
		delete(c.inflight, req.vmID)
		return
	}
	c.pendingMig[req.vmID] = now
	demand := vm.DemandAt(now)
	ta := c.core.Ta
	if req.kind == "high" {
		ta = c.core.HighMigTa(req.u)
	}
	start := now
	noAcceptor := func() {
		if req.kind == "high" {
			if wake := c.migrationWake(demand, ta); wake >= 0 {
				c.net.Send(netsim.Message{
					From: managerNode, To: serverNode(req.serverID), Kind: "migrate",
					Payload: migrateOrder{vmID: req.vmID, destID: wake, kind: req.kind, start: start},
					Size:    assignSize,
				})
				return
			}
		}
		// Low migration with no destination, or nothing to wake: the VM is
		// not migrated at all (§II).
		c.abortMigration(req.vmID)
	}
	opened := c.openRound(ta, demand, req.serverID, func(r *round) {
		if len(r.accepts) > 0 {
			destID := r.accepts[c.mgr.Intn(len(r.accepts))]
			c.net.Send(netsim.Message{
				From: managerNode, To: serverNode(req.serverID), Kind: "migrate",
				Payload: migrateOrder{vmID: req.vmID, destID: destID, kind: req.kind, start: start},
				Size:    assignSize,
			})
			return
		}
		noAcceptor()
	})
	if !opened {
		// Nobody to invite at all (e.g. the source is the only active
		// server): same decision as an all-reject round.
		noAcceptor()
	}
}

// migrationWake wakes a destination for a high migration nobody accepted:
// the core's wake choice among every hibernated server fitting the demand
// under ta or, when none fits, the largest hibernated server (the wake of
// last resort Policy and wakeAssign share); -1 when every server is up (the
// migration aborts). A server whose placement wake is still powering on is
// among the candidates; picked, it is not woken a second time — the
// migration rides the wake in flight and its demand joins the reservation.
func (c *Cluster) migrationWake(demand, ta float64) int {
	sleeping := c.fresh[:0]
	for _, s := range c.dc.Servers {
		if s.State() == dc.Hibernated {
			sleeping = append(sleeping, s)
		}
	}
	c.fresh = sleeping
	i := c.core.Wake(c.mgr, len(sleeping), c.freshSpec, demand, 0, ta)
	if i < 0 {
		i = ecocloud.Largest(len(sleeping), c.freshSpec)
	}
	if i < 0 {
		return -1
	}
	id := sleeping[i].ID
	if _, pending := c.pendingWakes[id]; pending {
		c.reserveWake(id, demand, false)
		return id
	}
	c.Stats.Wakes++
	c.cfg.Obs.Count("protocol.wakeups", 1)
	c.net.Send(netsim.Message{
		From: managerNode, To: serverNode(id), Kind: "wake",
		Payload: nil, Size: assignSize,
	})
	return id
}

// findVM returns the VM with the given ID hosted on s, or nil.
func (c *Cluster) findVM(s *dc.Server, id int) *trace.VM {
	c.vms = s.AppendVMs(c.vms[:0])
	for _, vm := range c.vms {
		if vm.ID == id {
			return vm
		}
	}
	return nil
}
