package node

import (
	"fmt"
	"time"

	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/trace"
)

// agent is one shard of the fleet: the servers in this node's span, hosted
// in a local policy-free dc.DataCenter, driven by a single event-loop
// goroutine that consumes one channel per message kind (the distributePKI
// node-loop shape). All decisions use the virtual timestamp carried by the
// triggering message; the loop never reads a host clock.
//
// Server ID mapping: local index i in the shard's DataCenter is global ID
// span.Lo+i. Per-server rng streams are split from the protocol master by
// GLOBAL ID with the same labels the netsim cluster uses, so a server's
// Bernoulli draw sequence is the shard layout's business, not its owner's.
type agent struct {
	node int
	span Span
	cfg  *ClusterConfig
	pcfg protocol.Config

	dcen   *dc.DataCenter
	vmByID map[int]*trace.VM
	core   ecocloud.Core
	srcs   ecocloud.Streams // by global ID, from master seed+1 as in protocolday
	pm     dc.PowerModel

	tr    protocol.Transport
	stats func() (int, int64) // transport counters, read at summary time

	// Energy integration: utilization only changes at message-borne events
	// (VM demand is constant over a VM's life), so left-rectangle integration
	// at every virtual-time-carrying message is exact, not approximate.
	lastT  time.Duration
	joules float64

	counters agentCounters
	final    summaryMsg // set by onDone; the per-node CSV row

	// One channel per message kind. The barrier discipline guarantees at
	// most one kind has traffic in flight at any instant, so the select in
	// run never has to arbitrate between ready channels.
	inviteCh   chan inviteMsg
	assignCh   chan assignMsg
	removeCh   chan removeMsg
	scanCh     chan scanMsg
	wakeCh     chan wakeMsg
	migrateCh  chan migrateMsg
	transferCh chan transferMsg
	cutoverCh  chan cutoverMsg
	utilCh     chan utilQueryMsg
	doneCh     chan doneMsg
}

// agentCounters are the per-node totals reported in the summary and the
// per-node CSV.
type agentCounters struct {
	Placements    int64
	Removals      int64
	MigrationsIn  int64
	MigrationsOut int64
	Hibernates    int64
	Activations   int64
}

// newAgent builds the shard for cfg.Nodes[nodeID] over transport tr.
func newAgent(cfg *ClusterConfig, nodeID int, ws *trace.Set, tr protocol.Transport, stats func() (int, int64)) (*agent, error) {
	pcfg := cfg.Proto()
	core, err := pcfg.Core()
	if err != nil {
		return nil, err
	}
	span := cfg.Nodes[nodeID].Span
	a := &agent{
		node:   nodeID,
		span:   span,
		cfg:    cfg,
		pcfg:   pcfg,
		dcen:   dc.New(dc.UniformFleet(span.Size(), cfg.Cores, cfg.CoreMHz)),
		vmByID: make(map[int]*trace.VM, len(ws.VMs)),
		core:   core,
		srcs:   ecocloud.NewStreams(rng.New(cfg.Seed+1), span.Hi),
		pm:     dc.DefaultPowerModel(),
		tr:     tr,
		stats:  stats,

		inviteCh:   make(chan inviteMsg, 4),
		assignCh:   make(chan assignMsg, 4),
		removeCh:   make(chan removeMsg, 4),
		scanCh:     make(chan scanMsg, 4),
		wakeCh:     make(chan wakeMsg, 4),
		migrateCh:  make(chan migrateMsg, 4),
		transferCh: make(chan transferMsg, 4),
		cutoverCh:  make(chan cutoverMsg, 4),
		utilCh:     make(chan utilQueryMsg, 4),
		doneCh:     make(chan doneMsg, 1),
	}
	for _, vm := range ws.VMs {
		a.vmByID[vm.ID] = vm
	}
	return a, nil
}

// handle demuxes one delivered message into its kind's channel. It runs on
// the transport's dispatch goroutine; the loop goroutine consumes.
func (a *agent) handle(msg netsim.Message) {
	switch p := msg.Payload.(type) {
	case inviteMsg:
		a.inviteCh <- p
	case assignMsg:
		a.assignCh <- p
	case removeMsg:
		a.removeCh <- p
	case scanMsg:
		a.scanCh <- p
	case wakeMsg:
		a.wakeCh <- p
	case migrateMsg:
		a.migrateCh <- p
	case transferMsg:
		a.transferCh <- p
	case cutoverMsg:
		a.cutoverCh <- p
	case utilQueryMsg:
		a.utilCh <- p
	case doneMsg:
		a.doneCh <- p
	default:
		// A peer speaking a kind we route but never expect at an agent
		// (driver-bound acks): drop rather than crash on a confused peer.
	}
}

// run is the event loop. It exits after the done message's summary is sent.
func (a *agent) run() {
	for {
		select {
		case m := <-a.inviteCh:
			a.onInvite(m)
		case m := <-a.assignCh:
			a.onAssign(m)
		case m := <-a.removeCh:
			a.onRemove(m)
		case m := <-a.scanCh:
			a.onScan(m)
		case m := <-a.wakeCh:
			a.onWake(m)
		case m := <-a.migrateCh:
			a.onMigrate(m)
		case m := <-a.transferCh:
			a.onTransfer(m)
		case m := <-a.cutoverCh:
			a.onCutover(m)
		case m := <-a.utilCh:
			a.onUtilQuery(m)
		case m := <-a.doneCh:
			a.onDone(m)
			return
		}
	}
}

// server returns the local server for a global ID, panicking on a foreign
// ID: the driver routing a server to the wrong shard is a protocol bug.
func (a *agent) server(globalID int) *dc.Server {
	if !a.span.Contains(globalID) {
		panic(fmt.Sprintf("node %d: server %d outside span %d:%d", a.node, globalID, a.span.Lo, a.span.Hi))
	}
	return a.dcen.Servers[globalID-a.span.Lo]
}

// integrate advances the energy account to virtual time now.
func (a *agent) integrate(now time.Duration) {
	if now > a.lastT {
		a.joules += a.dcen.PowerAt(a.lastT, a.pm) * (now - a.lastT).Seconds()
		a.lastT = now
	}
}

// send is a shorthand for a driver-bound or peer-bound message.
func (a *agent) send(to int, kind string, payload any, size int) {
	a.tr.Send(netsim.Message{
		From: netsim.NodeID(a.node), To: netsim.NodeID(to),
		Kind: kind, Payload: payload, Size: size,
	})
}

const driverNode = 0

// onInvite evaluates the round against every local active server (in global
// ID order) and replies with the accepting IDs — the shard-aggregated form
// of the per-server ACCEPT/REJECT replies in the netsim protocol.
func (a *agent) onInvite(m inviteMsg) {
	now := vt(m.NowNS)
	a.integrate(now)
	var accepts []int32
	trial := a.core.Round(m.Ta)
	for i := a.dcen.NextActive(0); i >= 0; i = a.dcen.NextActive(i + 1) {
		s, globalID := a.dcen.Servers[i], a.span.Lo+i
		if globalID == m.Exclude {
			continue
		}
		inv := ecocloud.Invitee{U: s.UtilizationAt(now), CapMHz: s.CapacityMHz(), Grace: a.core.InGrace(now, s.ActivatedAt())}
		if trial.Accept(&a.srcs, globalID, m.Demand, 0, inv) {
			accepts = append(accepts, int32(globalID))
		}
	}
	a.send(driverNode, kindReply, replyMsg{Round: m.Round, Node: a.node, Accepts: accepts}, a.pcfg.ReplySize)
}

// onAssign places a VM on the driver-chosen server, waking it first when
// ordered to. Re-delivery is idempotent: an already-hosted VM just re-acks.
func (a *agent) onAssign(m assignMsg) {
	now := vt(m.NowNS)
	a.integrate(now)
	s := a.server(m.Server)
	activated := false
	if host, ok := a.dcen.HostOf(m.VMID); !ok || host != s {
		if ok {
			panic(fmt.Sprintf("node %d: assign of VM %d to server %d but hosted on %d",
				a.node, m.VMID, m.Server, host.ID+a.span.Lo))
		}
		if s.State() == dc.Hibernated {
			if !m.Wake {
				panic(fmt.Sprintf("node %d: assign to hibernated server %d without wake", a.node, m.Server))
			}
			if err := a.dcen.Activate(s, now); err != nil {
				panic(fmt.Sprintf("node %d: waking server %d: %v", a.node, m.Server, err))
			}
			a.counters.Activations++
			activated = true
		}
		vm := a.vmByID[m.VMID]
		if vm == nil {
			panic(fmt.Sprintf("node %d: assign of unknown VM %d", a.node, m.VMID))
		}
		if err := a.dcen.Place(vm, s); err != nil {
			panic(fmt.Sprintf("node %d: placing VM %d on server %d: %v", a.node, m.VMID, m.Server, err))
		}
		a.counters.Placements++
	}
	a.send(driverNode, kindAssigned, assignedMsg{VMID: m.VMID, Server: m.Server, Activated: activated}, a.pcfg.ReplySize)
}

// onRemove handles a departure. A VM the shard no longer hosts is acked
// anyway: the barrier must complete.
func (a *agent) onRemove(m removeMsg) {
	now := vt(m.NowNS)
	a.integrate(now)
	if _, ok := a.dcen.HostOf(m.VMID); ok {
		if _, err := a.dcen.Remove(m.VMID); err != nil {
			panic(fmt.Sprintf("node %d: removing VM %d: %v", a.node, m.VMID, err))
		}
		a.counters.Removals++
	}
	a.send(driverNode, kindRemoved, removedMsg{VMID: m.VMID}, a.pcfg.ReplySize)
}

// onScan is the local monitoring tick (§II): hibernate servers drained
// empty past the grace period, and run each loaded server's migration
// Bernoulli trial; successful trials select a VM with the paper's rules.
func (a *agent) onScan(m scanMsg) {
	now := vt(m.NowNS)
	a.integrate(now)
	out := scandoneMsg{Node: a.node}
	for i, s := range a.dcen.Servers {
		if s.State() != dc.Active {
			continue
		}
		globalID := a.span.Lo + i
		u := 0.0
		if s.NumVMs() > 0 { // an empty server decides on grace alone
			u = s.UtilizationAt(now)
		}
		switch act := a.core.Scan(a.srcs.Get(globalID), s.NumVMs(), u, now, s.ActivatedAt(), 0); act {
		case ecocloud.ScanHibernate:
			if err := a.dcen.Hibernate(s); err != nil {
				panic(fmt.Sprintf("node %d: hibernating server %d: %v", a.node, globalID, err))
			}
			a.counters.Hibernates++
			out.Hibernated = append(out.Hibernated, int32(globalID))
		case ecocloud.ScanLow, ecocloud.ScanHigh:
			high := act == ecocloud.ScanHigh
			if vm := a.core.MigrationVM(a.srcs.Get(globalID), s.VMs(), now, u, s.CapacityMHz(), high); vm != nil {
				out.MigReqs = append(out.MigReqs, migReqEntry{Server: int32(globalID), VMID: int32(vm.ID), High: high, U: u})
			}
		}
	}
	a.send(driverNode, kindScandone, out, a.pcfg.ReplySize)
}

// onWake activates a hibernated server ahead of an incoming migration.
func (a *agent) onWake(m wakeMsg) {
	now := vt(m.NowNS)
	a.integrate(now)
	s := a.server(m.Server)
	if s.State() == dc.Hibernated {
		if err := a.dcen.Activate(s, now); err != nil {
			panic(fmt.Sprintf("node %d: waking server %d: %v", a.node, m.Server, err))
		}
		a.counters.Activations++
	}
	a.send(driverNode, kindWoken, wokenMsg{Server: m.Server}, a.pcfg.ReplySize)
}

// onMigrate is the source side of a live migration: ship the VM's identity
// to the destination shard, RAM bytes declared in the frame size. The local
// copy keeps running until the cutover order arrives — which is what makes
// a TRANSFER dropped by -impair recoverable.
func (a *agent) onMigrate(m migrateMsg) {
	now := vt(m.NowNS)
	a.integrate(now)
	if _, ok := a.dcen.HostOf(m.VMID); !ok {
		// Departed or already moved: nothing to transfer; tell the driver.
		a.send(driverNode, kindMigrated, migratedMsg{VMID: m.VMID, Server: m.DestServer}, a.pcfg.ReplySize)
		return
	}
	a.send(m.DestNode, kindTransfer,
		transferMsg{VMID: m.VMID, DestServer: m.DestServer, High: m.High, NowNS: m.NowNS},
		a.pcfg.TransferBytes)
}

// onTransfer is the destination side: land the VM on the chosen server
// (defensively waking it if the driver's wake was somehow lost) and ack the
// driver. When the source server lives in this same shard the VM is still
// present locally — that is an intra-shard move, handled by dc.Migrate, and
// the later cutover (scoped to the source server) leaves it alone.
// Duplicated transfers (-impair dup) re-ack without re-placing.
func (a *agent) onTransfer(m transferMsg) {
	now := vt(m.NowNS)
	a.integrate(now)
	s := a.server(m.DestServer)
	activated := false
	if host, ok := a.dcen.HostOf(m.VMID); !ok || host != s {
		if s.State() == dc.Hibernated {
			if err := a.dcen.Activate(s, now); err != nil {
				panic(fmt.Sprintf("node %d: transfer wake of server %d: %v", a.node, m.DestServer, err))
			}
			a.counters.Activations++
			activated = true
		}
		if ok {
			// Intra-shard migration: source and destination share this dc.
			if err := a.dcen.Migrate(m.VMID, s); err != nil {
				panic(fmt.Sprintf("node %d: intra-shard migration of VM %d to %d: %v",
					a.node, m.VMID, m.DestServer, err))
			}
			a.counters.MigrationsIn++
			a.counters.MigrationsOut++
		} else {
			vm := a.vmByID[m.VMID]
			if vm == nil {
				panic(fmt.Sprintf("node %d: transfer of unknown VM %d", a.node, m.VMID))
			}
			if err := a.dcen.Place(vm, s); err != nil {
				panic(fmt.Sprintf("node %d: migrating VM %d to server %d: %v", a.node, m.VMID, m.DestServer, err))
			}
			a.counters.MigrationsIn++
		}
	}
	a.send(driverNode, kindMigrated,
		migratedMsg{VMID: m.VMID, Server: m.DestServer, OK: true, Activated: activated}, a.pcfg.ReplySize)
}

// onCutover drops the source copy of a migrated VM and acks via removed:
// the driver holds the barrier until the copy is gone, so no later exchange
// can observe the VM in two shards. The removal is scoped to the migration's
// source server: after an intra-shard move the VM is already on its
// destination in this same dc and must stay there.
func (a *agent) onCutover(m cutoverMsg) {
	now := vt(m.NowNS)
	a.integrate(now)
	if host, ok := a.dcen.HostOf(m.VMID); ok && host.ID+a.span.Lo == m.SrcServer {
		if _, err := a.dcen.Remove(m.VMID); err != nil {
			panic(fmt.Sprintf("node %d: cutover of VM %d: %v", a.node, m.VMID, err))
		}
		a.counters.MigrationsOut++
	}
	a.send(driverNode, kindRemoved, removedMsg{VMID: m.VMID}, a.pcfg.ReplySize)
}

// onUtilQuery reports the least-utilized local active server (ties keep the
// lowest ID, matching the netsim manager's scan order).
func (a *agent) onUtilQuery(m utilQueryMsg) {
	now := vt(m.NowNS)
	a.integrate(now)
	out := utilBestMsg{Node: a.node}
	if i, u := ecocloud.LeastUtilized(a.dcen.Servers, now); i >= 0 {
		out = utilBestMsg{Node: a.node, Has: true, Server: a.span.Lo + i, U: u}
	}
	a.send(driverNode, kindUtilBest, out, a.pcfg.ReplySize)
}

// onDone closes the energy account at the horizon, checks the shard's
// invariants and reports its totals. The transport counters are read before
// the summary send, so the reported figures are deterministic.
func (a *agent) onDone(m doneMsg) {
	a.integrate(vt(m.HorizonNS))
	if err := a.dcen.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("node %d: shard left inconsistent: %v", a.node, err))
	}
	sent, bytes := a.stats()
	a.final = summaryMsg{
		Node:          a.node,
		Placements:    a.counters.Placements,
		Removals:      a.counters.Removals,
		MigrationsIn:  a.counters.MigrationsIn,
		MigrationsOut: a.counters.MigrationsOut,
		Hibernates:    a.counters.Hibernates,
		Activations:   a.counters.Activations,
		FinalActive:   int64(a.dcen.ActiveCount()),
		EnergyKWh:     a.joules / 3.6e6,
		MsgsSent:      int64(sent),
		BytesSent:     bytes,
	}
	a.send(driverNode, kindSummary, a.final, a.pcfg.ReplySize)
}
