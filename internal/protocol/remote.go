package protocol

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/dc"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file spreads one cluster over processes (ecod, internal/node).
// Node 0 runs the day exactly as one process does: the engine, netsim, the
// manager and a replica of the whole fleet. Every other process owns a span
// of servers and keeps a full replica too. A delivery to a server in
// another process's span becomes one blocking call to that process: it runs
// the server's own handler on its replica and replies with what the handler
// did, in order — data-center mutations, writes to the manager's books (the
// bookWrite seam, timers included) and sends. Node 0 applies the reply in
// that order: mutations to its replica, book writes to the manager, sends
// through netsim. Every draw, event and counter therefore happens exactly
// where it happens in one process.
//
// A call carries the virtual time, every data-center mutation the callee has
// not seen yet, and the work: a message, a scan of the callee's span with
// its in-flight marks, or the final sync. A replica is thus exact whenever a
// handler runs on it, and fleet reads need no special case. Departures run
// on node 0 and reach the owning process with its next call.

// Caller makes one blocking call to process node and returns its reply. req
// is valid only until Caller returns.
type Caller func(node int, req []byte) ([]byte, error)

// fabric is node 0's side of a cluster spread over processes.
type fabric struct {
	c       *Cluster
	bounds  []int // process k owns servers [bounds[k], bounds[k+1])
	call    Caller
	observe func(dc.Event)
	// log holds the mutations from the oldest one some process has not
	// seen; seen[k] is the prefix of log process k has seen.
	log  []byte
	seen []int
	req  []byte // request scratch
	err  error
}

// Distribute makes c, built by New, node 0 of a cluster spread over
// len(bounds)-1 processes: process k owns servers [bounds[k], bounds[k+1]),
// and a delivery to a server outside node 0's span becomes a call to its
// owner. vms is the day's workload, every VM a call may name. observe, when
// non-nil, sees every data-center mutation after it applies. Call it before
// the day starts.
func (c *Cluster) Distribute(bounds []int, vms []*trace.VM, call Caller, observe func(dc.Event)) error {
	if len(bounds) < 2 || bounds[0] != 0 || bounds[len(bounds)-1] != len(c.dc.Servers) {
		return fmt.Errorf("protocol: spans %v do not cover %d servers", bounds, len(c.dc.Servers))
	}
	for k := 1; k < len(bounds); k++ {
		if bounds[k] <= bounds[k-1] {
			return fmt.Errorf("protocol: empty span %d in %v", k-1, bounds)
		}
	}
	if err := c.indexVMs(vms); err != nil {
		return err
	}
	f := &fabric{c: c, bounds: bounds, call: call, observe: observe, seen: make([]int, len(bounds)-1)}
	c.fab = f
	c.dc.SetJournal(f.journal)
	for k := 1; k < len(f.seen); k++ {
		for id := bounds[k]; id < bounds[k+1]; id++ {
			c.net.Register(serverNode(id), func(m netsim.Message) {
				f.exchange(k, m.Kind, appendMessage(f.request(k, tagMessage), m))
			})
		}
	}
	return nil
}

// journal logs one of node 0's mutations for the other processes, if any.
func (f *fabric) journal(ev dc.Event) {
	if len(f.seen) > 1 {
		f.log = appendMutation(f.log, ev, f.c.eng.Now())
	}
	if f.observe != nil {
		f.observe(ev)
	}
}

// request starts a call to process k at the current virtual time: the
// mutations k has not seen, then the work tag.
func (f *fabric) request(k int, work byte) []byte {
	req := binary.AppendVarint(f.req[:0], int64(f.c.eng.Now()))
	req = append(req, f.log[f.seen[k]:]...)
	return append(req, work)
}

// exchange makes one call to process k and applies its reply; work names
// the call in an error: the message's kind, scan or sync. The first failure
// stops the engine and every later call.
func (f *fabric) exchange(k int, work string, req []byte) {
	f.req = req
	if f.err != nil {
		return
	}
	res, err := f.call(k, req)
	if err == nil {
		err = f.c.apply(res)
	}
	if err != nil {
		f.err = fmt.Errorf("protocol: %s call to process %d at %v: %w", work, k, f.c.eng.Now(), err)
		f.c.eng.Stop()
		return
	}
	f.seen[k] = len(f.log)
	lo := len(f.log)
	for _, s := range f.seen[1:] {
		lo = min(lo, s)
	}
	if lo > 0 {
		f.log = f.log[:copy(f.log, f.log[lo:])]
		for i := 1; i < len(f.seen); i++ {
			f.seen[i] -= lo
		}
	}
}

// scan runs one scan tick span by span in process order: node 0's span in
// place, every other span with one call carrying its in-flight marks.
func (f *fabric) scan(now time.Duration) {
	c := f.c
	c.scanSpan(f.bounds[0], f.bounds[1], now)
	for k := 1; k < len(f.seen); k++ {
		lo, hi := f.bounds[k], f.bounds[k+1]
		var marks []int
		for _, s := range c.dc.Servers[lo:hi] {
			c.vms = s.AppendVMs(c.vms[:0])
			for _, vm := range c.vms {
				if c.inflight[vm.ID] {
					marks = append(marks, vm.ID)
				}
			}
		}
		req := f.request(k, tagScan)
		req = binary.AppendVarint(req, int64(lo))
		req = binary.AppendVarint(req, int64(hi))
		req = binary.AppendVarint(req, int64(len(marks)))
		for _, id := range marks {
			req = binary.AppendVarint(req, int64(id))
		}
		f.exchange(k, "scan", req)
	}
}

// finish brings every other process's replica up to the end of the day.
func (f *fabric) finish() error {
	for k := 1; k < len(f.seen); k++ {
		f.exchange(k, "sync", f.request(k, tagSync))
	}
	return f.err
}

// apply applies one reply on node 0, in order.
func (c *Cluster) apply(res []byte) error {
	r := wireReader{b: res}
	for r.err == nil && len(r.b) > 0 {
		switch tag := r.u8(); tag {
		case tagMutation:
			if ev, at := r.mutation(); r.err == nil {
				r.err = c.replay(ev, at)
			}
		case tagBook:
			if w := r.book(); r.err == nil {
				c.applyBook(w)
			}
		case tagSend:
			m := c.readMessage(&r)
			if r.err == nil && !c.serverSends(m) {
				r.fail("a server cannot send %q to node %d", m.Kind, m.To)
			}
			if r.err == nil {
				c.net.Send(m)
			}
		default:
			r.fail("reply entry tag %d", tag)
		}
	}
	return r.err
}

// serving is a served process's side: the Transport its handlers send
// through, recording what a handler does for node 0 to apply.
type serving struct {
	c         *Cluster
	observe   func(dc.Event)
	out       []byte
	recording bool
}

// NewServing builds the cluster a process other than node 0 runs: the
// cluster New builds, over no fabric. Its server handlers run only inside
// Serve. vms and observe are as for Distribute.
func NewServing(cfg Config, specs []dc.Spec, seed uint64, vms []*trace.VM, observe func(dc.Event)) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sv := &serving{observe: observe}
	c, err := newOn(cfg, specs, rng.New(seed), sim.New(), sv)
	if err != nil {
		return nil, err
	}
	if err := c.indexVMs(vms); err != nil {
		return nil, err
	}
	sv.c, c.serving = c, sv
	c.dc.SetJournal(sv.journal)
	return c, nil
}

func (sv *serving) Register(netsim.NodeID, netsim.Handler) {}

func (sv *serving) Send(m netsim.Message) {
	sv.out = appendMessage(append(sv.out, tagSend), m)
}

func (sv *serving) Broadcast(netsim.NodeID, []netsim.NodeID, string, any, int) {
	panic("protocol: a server handler broadcast")
}

func (sv *serving) Stats() (int, int64) { return 0, 0 }

func (sv *serving) record(w bookWrite) {
	sv.out = appendBook(sv.out, w)
}

func (sv *serving) journal(ev dc.Event) {
	if sv.recording {
		sv.out = appendMutation(sv.out, ev, sv.c.eng.Now())
	}
	if sv.observe != nil {
		sv.observe(ev)
	}
}

// Serve runs one call from node 0 on a cluster built by NewServing and
// returns the reply, valid until the next call. last reports the final call
// of the day.
func (c *Cluster) Serve(req []byte) (res []byte, last bool, err error) {
	sv := c.serving
	r := wireReader{b: req}
	now := r.dur()
	for r.err == nil && len(r.b) > 0 && r.b[0] == tagMutation {
		r.u8()
		if ev, at := r.mutation(); r.err == nil {
			if r.err = c.advance(at); r.err == nil {
				r.err = c.replay(ev, at)
			}
		}
	}
	if r.err == nil {
		r.err = c.advance(now)
	}
	sv.out, sv.recording = sv.out[:0], true
	switch work := r.u8(); {
	case r.err != nil:
	case work == tagMessage:
		m := c.readMessage(&r)
		if r.err == nil && (toManager(m.Kind) || !c.isServer(m.To)) {
			r.fail("%q to node %d is not a server's message", m.Kind, m.To)
		}
		if r.err == nil {
			c.onServerMessage(c.dc.Servers[nodeServer(m.To)], m)
		}
	case work == tagScan:
		lo, hi, n := r.varint(), r.varint(), r.varint()
		if r.err == nil && (lo < 0 || lo >= hi || hi > len(c.dc.Servers) || n < 0 || n > len(r.b)) {
			r.fail("scan of %d:%d with %d marks", lo, hi, n)
		}
		clear(c.inflight)
		for i := 0; i < n && r.err == nil; i++ {
			c.inflight[r.varint()] = true
		}
		if r.err == nil {
			c.scanSpan(lo, hi, now)
		}
	case work == tagSync:
		last = true
	default:
		r.fail("work tag %d", work)
	}
	sv.recording = false
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d bytes after the work", len(r.b))
	}
	if r.err == nil && c.eng.Pending() > 0 {
		r.fail("a served handler armed a local timer")
	}
	return sv.out, last, r.err
}

// toManager reports whether messages of the kind go to the manager; every
// other kind goes to a server.
func toManager(kind string) bool { return kind == "reply" || kind == "migreq" }

// isServer reports whether node n is one of the fleet's servers.
func (c *Cluster) isServer(n netsim.NodeID) bool {
	id := nodeServer(n)
	return id >= 0 && id < len(c.dc.Servers)
}

// serverSends reports whether a server handler can have sent m: a reply or
// a MIGREQ to the manager, or a TRANSFER to another server.
func (c *Cluster) serverSends(m netsim.Message) bool {
	if toManager(m.Kind) {
		return m.To == managerNode
	}
	return m.Kind == "transfer" && c.isServer(m.To)
}

// advance moves a serving cluster's clock, whose queue stays empty, to t.
func (c *Cluster) advance(t time.Duration) error {
	if t < c.eng.Now() {
		return fmt.Errorf("protocol: virtual time runs back from %v to %v", c.eng.Now(), t)
	}
	c.eng.Run(t)
	return nil
}

// replay applies one mutation another process made.
func (c *Cluster) replay(ev dc.Event, at time.Duration) error {
	d := c.dc
	if ev.Server < 0 || ev.Server >= len(d.Servers) {
		return fmt.Errorf("protocol: %s mutation of server %d", ev.Kind, ev.Server)
	}
	s := d.Servers[ev.Server]
	switch ev.Kind {
	case dc.EventPlace:
		if ev.VM < 0 || ev.VM >= len(c.vmTable) || c.vmTable[ev.VM] == nil {
			return fmt.Errorf("protocol: placing unknown VM %d", ev.VM)
		}
		return d.Place(c.vmTable[ev.VM], s)
	case dc.EventRemove:
		_, err := d.Remove(ev.VM)
		return err
	case dc.EventMigrate:
		if ev.Dest < 0 || ev.Dest >= len(d.Servers) {
			return fmt.Errorf("protocol: migrating VM %d to server %d", ev.VM, ev.Dest)
		}
		return d.Migrate(ev.VM, d.Servers[ev.Dest])
	case dc.EventActivate:
		return d.Activate(s, at)
	case dc.EventHibernate:
		return d.Hibernate(s)
	}
	return fmt.Errorf("protocol: a %q mutation cannot be replayed", ev.Kind)
}

// indexVMs builds the table that finds a VM by ID.
func (c *Cluster) indexVMs(vms []*trace.VM) error {
	for _, vm := range vms {
		if vm.ID < 0 || vm.ID > 1<<31-1 {
			return fmt.Errorf("protocol: VM ID %d", vm.ID)
		}
		if vm.ID >= len(c.vmTable) {
			c.vmTable = append(c.vmTable, make([]*trace.VM, vm.ID+1-len(c.vmTable))...)
		}
		c.vmTable[vm.ID] = vm
	}
	return nil
}

// The wire form of calls and replies: integers are varints, floats their
// IEEE-754 bits, and every entry starts with its tag.
const (
	tagMutation byte = iota + 1 // kind, VM, server, destination, virtual time
	tagBook                     // a bookWrite
	tagSend                     // a message the handler sent
	tagMessage                  // work: deliver this message
	tagScan                     // work: scan servers [lo, hi) under these in-flight marks
	tagSync                     // work: none; the day is over
)

// mutationKinds and messageKinds number the kinds on the wire.
var (
	mutationKinds = []dc.EventKind{
		dc.EventPlace, dc.EventRemove, dc.EventMigrate, dc.EventActivate, dc.EventHibernate,
		dc.EventFail, dc.EventRecover, dc.EventCrashEvict,
	}
	messageKinds = []string{"invite", "reply", "assign", "migreq", "migrate", "transfer", "wake"}
)

func kindCode[K comparable](kinds []K, k K) byte {
	for i, x := range kinds {
		if x == k {
			return byte(i)
		}
	}
	panic(fmt.Sprintf("protocol: no wire code for kind %v", k))
}

func appendMutation(b []byte, ev dc.Event, at time.Duration) []byte {
	b = append(b, tagMutation, kindCode(mutationKinds, ev.Kind))
	b = binary.AppendVarint(b, int64(ev.VM))
	b = binary.AppendVarint(b, int64(ev.Server))
	b = binary.AppendVarint(b, int64(ev.Dest))
	return binary.AppendVarint(b, int64(at))
}

func appendBook(b []byte, w bookWrite) []byte {
	b = append(b, tagBook, byte(w.op))
	b = binary.AppendVarint(b, int64(w.id))
	b = binary.AppendVarint(b, int64(w.start))
	return appendFlag(b, w.high)
}

// appendMessage encodes a protocol message, payload included.
func appendMessage(b []byte, m netsim.Message) []byte {
	b = append(b, kindCode(messageKinds, m.Kind))
	b = binary.AppendVarint(b, int64(m.From))
	b = binary.AppendVarint(b, int64(m.To))
	b = binary.AppendVarint(b, int64(m.Size))
	switch p := m.Payload.(type) {
	case *inviteReq:
		b = binary.AppendVarint(b, int64(p.roundID))
		b = appendF64(appendF64(b, p.demand), p.ta)
	case *reply:
		b = appendFlag(binary.AppendVarint(b, int64(p.roundID)), p.accept)
	case assignReq:
		b = appendFlag(binary.AppendVarint(b, int64(p.vm.ID)), p.wake)
		b = binary.AppendVarint(b, int64(p.start))
	case migReq:
		b = binary.AppendVarint(b, int64(p.serverID))
		b = appendFlag(binary.AppendVarint(b, int64(p.vmID)), p.kind == "high")
		b = appendF64(b, p.u)
	case migrateOrder:
		b = binary.AppendVarint(b, int64(p.vmID))
		b = appendFlag(binary.AppendVarint(b, int64(p.destID)), p.kind == "high")
		b = binary.AppendVarint(b, int64(p.start))
	case transfer:
		b = appendFlag(binary.AppendVarint(b, int64(p.vmID)), p.kind == "high")
		b = binary.AppendVarint(b, int64(p.start))
	case nil: // wake
	default:
		panic(fmt.Sprintf("protocol: no wire form for %T", m.Payload))
	}
	return b
}

// readMessage decodes appendMessage's encoding.
func (c *Cluster) readMessage(r *wireReader) netsim.Message {
	code := r.u8()
	m := netsim.Message{From: netsim.NodeID(r.varint()), To: netsim.NodeID(r.varint()), Size: r.varint()}
	if int(code) >= len(messageKinds) {
		r.fail("message kind %d", code)
		return m
	}
	m.Kind = messageKinds[code]
	switch m.Kind {
	case "invite":
		m.Payload = newInvite(r.varint(), r.f64(), r.f64())
	case "reply":
		m.Payload = &reply{roundID: r.varint(), accept: r.flag()}
	case "assign":
		id := r.varint()
		if id < 0 || id >= len(c.vmTable) || c.vmTable[id] == nil {
			r.fail("assign of unknown VM %d", id)
			return m
		}
		m.Payload = assignReq{vm: c.vmTable[id], wake: r.flag(), start: r.dur()}
	case "migreq":
		m.Payload = migReq{serverID: r.varint(), vmID: r.varint(), kind: migKind(r.flag()), u: r.f64()}
	case "migrate":
		m.Payload = migrateOrder{vmID: r.varint(), destID: r.varint(), kind: migKind(r.flag()), start: r.dur()}
	case "transfer":
		m.Payload = transfer{vmID: r.varint(), kind: migKind(r.flag()), start: r.dur()}
	}
	return m
}

func migKind(high bool) string {
	if high {
		return "high"
	}
	return "low"
}

func appendF64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

func appendFlag(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// wireReader reads the wire form. Its first error sticks, and every read
// after it returns zero.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("protocol: "+format, args...)
	}
}

func (r *wireReader) u8() byte {
	if r.err != nil || len(r.b) == 0 {
		r.fail("truncated")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *wireReader) varint() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

func (r *wireReader) dur() time.Duration { return time.Duration(r.varint()) }

func (r *wireReader) flag() bool { return r.u8() != 0 }

func (r *wireReader) f64() float64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail("truncated")
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *wireReader) mutation() (dc.Event, time.Duration) {
	code := r.u8()
	ev := dc.Event{VM: r.varint(), Server: r.varint(), Dest: r.varint()}
	at := r.dur()
	if int(code) >= len(mutationKinds) {
		r.fail("mutation kind %d", code)
		return ev, at
	}
	ev.Kind = mutationKinds[code]
	return ev, at
}

func (r *wireReader) book() bookWrite {
	w := bookWrite{op: bookOp(r.u8()), id: r.varint(), start: r.dur(), high: r.flag()}
	if w.op > opMigRequested {
		r.fail("book write %d", w.op)
	}
	return w
}
