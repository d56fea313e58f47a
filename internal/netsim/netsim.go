// Package netsim is a message-passing layer over the discrete-event engine:
// named nodes exchange messages that are delivered after a configurable
// latency (base + size-proportional + jitter). It exists to run the
// ecoCloud invitation protocol (paper Fig. 1) as actual message exchanges,
// so the scalability claims — "data centers are equipped with
// high-bandwidth networks that naturally support broadcast messaging"
// (footnote 1) and "particularly efficient in large data centers" — can be
// quantified in messages and wall-clock per placement.
package netsim

import (
	"fmt"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// NodeID identifies a protocol participant.
type NodeID int

// Message is one network message. Payload stays opaque to the network.
type Message struct {
	From, To NodeID
	Kind     string
	Payload  any
	Size     int // bytes, for the size-proportional latency share
}

// Handler consumes a delivered message. Handlers run inside the simulation
// loop (single-threaded) and may send further messages.
type Handler func(msg Message)

// LatencyModel maps a message to its delivery delay.
type LatencyModel struct {
	Base   time.Duration // propagation + switching floor
	PerKB  time.Duration // serialization per kilobyte
	Jitter time.Duration // uniform extra in [0, Jitter)
}

// DefaultLatency is a 10 GbE top-of-rack fabric: 50 us base, ~1 us/KB,
// 20 us jitter.
func DefaultLatency() LatencyModel {
	return LatencyModel{Base: 50 * time.Microsecond, PerKB: time.Microsecond, Jitter: 20 * time.Microsecond}
}

// Impairments is the lossy-delivery companion of LatencyModel: each delivery
// is independently dropped with probability DropProb, and each surviving
// delivery is duplicated with probability DupProb (the copy draws its own
// latency, so it can overtake the original). The zero value is a perfect
// fabric and draws nothing from the jitter stream, so fault-free runs are
// bit-identical with or without the feature compiled in.
//
// Draw-sequence-preserving guard contract: a probability of zero must not
// consume a draw from the deciding rng stream. Drop and Dup are the only
// sanctioned way to apply these probabilities — they test p > 0 before
// drawing, so enabling the struct with zero rates leaves every stream's draw
// sequence exactly as it was without impairments. Delivery (deliver below)
// goes through these two methods; ecod's lossy fabric is this one too, run on
// its node 0.
type Impairments struct {
	DropProb float64
	DupProb  float64
}

// Validate reports whether the impairment probabilities are usable. It is
// the single validation point for every layer that reuses Impairments
// (protocol configuration, ecod's cluster config): negative rates and rates
// >= 1 are rejected here and nowhere else.
func (i Impairments) Validate() error {
	switch {
	case i.DropProb < 0 || i.DropProb >= 1:
		return fmt.Errorf("netsim: DropProb = %v", i.DropProb)
	case i.DupProb < 0 || i.DupProb >= 1:
		return fmt.Errorf("netsim: DupProb = %v", i.DupProb)
	}
	return nil
}

// Enabled reports whether any impairment can ever fire.
func (i Impairments) Enabled() bool { return i.DropProb > 0 || i.DupProb > 0 }

// Drop decides one delivery's drop, drawing from src only when DropProb is
// positive (the guard contract above).
func (i Impairments) Drop(src *rng.Source) bool {
	return i.DropProb > 0 && src.Bernoulli(i.DropProb)
}

// Dup decides whether one surviving delivery is duplicated, drawing from src
// only when DupProb is positive (the guard contract above).
func (i Impairments) Dup(src *rng.Source) bool {
	return i.DupProb > 0 && src.Bernoulli(i.DupProb)
}

// delay computes one message's delivery latency.
func (l LatencyModel) delay(size int, src *rng.Source) time.Duration {
	d := l.Base + time.Duration(float64(l.PerKB)*float64(size)/1024)
	if l.Jitter > 0 {
		d += time.Duration(src.Float64() * float64(l.Jitter))
	}
	return d
}

// Network connects registered nodes through the simulation engine.
type Network struct {
	eng *sim.Engine
	lat LatencyModel
	imp Impairments
	src *rng.Source

	// handlers is indexed by node ID (nil: unregistered). Protocol node IDs
	// are small and dense (the manager is 0, server i is i+1), so the
	// table is as long as the largest registered ID plus one.
	handlers []Handler

	// free lists the deliveries that have fired, ready for reuse, and
	// eventNames holds the engine event name "netsim:<kind>" per message
	// kind. Together they keep scheduling a delivery from allocating once
	// the network has warmed up. lastKind and lastName repeat the latest
	// lookup: a broadcast's invites, and then their replies, come in runs
	// of one kind, so most deliveries skip the map.
	free               *delivery
	eventNames         map[string]string
	lastKind, lastName string

	// Counters for the scalability experiments.
	Sent  int
	Bytes int64
	// Impairment counters: deliveries lost, extra deliveries injected.
	Dropped    int
	Duplicated int
}

// SetImpairments installs (or clears, with the zero value) lossy delivery.
// It panics on invalid probabilities: impairments come from validated
// experiment configuration, not user input.
func (n *Network) SetImpairments(imp Impairments) {
	if err := imp.Validate(); err != nil {
		panic(err.Error())
	}
	n.imp = imp
}

// New builds a network on the engine with the given latency model; jitter
// draws come from src.
func New(eng *sim.Engine, lat LatencyModel, src *rng.Source) *Network {
	if eng == nil || src == nil {
		panic("netsim: nil engine or rng source")
	}
	return &Network{
		eng: eng, lat: lat, src: src,
		eventNames: make(map[string]string),
		lastName:   "netsim:", // the name of the empty kind, lastKind's zero value
	}
}

// Stats returns the wire transmissions and bytes delivered so far. It is the
// method form of the Sent/Bytes counters, making Network satisfy
// protocol.Transport.
func (n *Network) Stats() (sent int, bytes int64) { return n.Sent, n.Bytes }

// Register installs the handler for a node. Re-registering replaces it. A
// nil handler or a negative ID panics.
func (n *Network) Register(id NodeID, h Handler) {
	if h == nil {
		panic(fmt.Sprintf("netsim: nil handler for node %d", id))
	}
	if id < 0 {
		panic(fmt.Sprintf("netsim: negative node ID %d", id))
	}
	if int(id) >= len(n.handlers) {
		n.handlers = append(n.handlers, make([]Handler, int(id)+1-len(n.handlers))...)
	}
	n.handlers[id] = h
}

// Send queues one message for delivery. Sending to an unregistered node is
// a programming error and panics at delivery time, when the bug manifests.
func (n *Network) Send(msg Message) {
	n.Sent++
	n.Bytes += int64(msg.Size)
	n.deliver(msg)
}

// Broadcast sends the same payload to every destination. The data-center
// fabric supports hardware broadcast (footnote 1), so the sender pays one
// message; each delivery still counts its bytes and its own latency draw
// (and, under impairments, its own drop/duplicate decision).
func (n *Network) Broadcast(from NodeID, tos []NodeID, kind string, payload any, size int) {
	if len(tos) == 0 {
		return
	}
	n.Sent++ // one wire transmission
	for _, to := range tos {
		n.Bytes += int64(size)
		n.deliver(Message{From: from, To: to, Kind: kind, Payload: payload, Size: size})
	}
}

// deliver applies the impairments and schedules the surviving copies.
// Impairments.Drop/Dup keep the rng stream untouched when a probability is
// zero, so the perfect-fabric draw sequence is exactly the pre-impairment
// one.
func (n *Network) deliver(msg Message) {
	if n.imp.Drop(n.src) {
		n.Dropped++
		return
	}
	n.schedule(msg)
	if n.imp.Dup(n.src) {
		n.Duplicated++
		n.schedule(msg)
	}
}

// schedule queues one physical delivery after its own latency draw.
func (n *Network) schedule(msg Message) {
	d := n.lat.delay(msg.Size, n.src)
	if n.free == nil {
		n.refill()
	}
	dl := n.free
	n.free, dl.next = dl.next, nil
	dl.msg = msg
	if msg.Kind != n.lastKind {
		name, ok := n.eventNames[msg.Kind]
		if !ok {
			name = "netsim:" + msg.Kind
			n.eventNames[msg.Kind] = name
		}
		n.lastKind, n.lastName = msg.Kind, name
	}
	n.eng.After(d, n.lastName, dl.fire)
}

// deliveryBlock is how many deliveries the free list gains when it runs
// dry: they share one allocation.
const deliveryBlock = 16

// refill puts a block of new deliveries on the empty free list.
func (n *Network) refill() {
	block := make([]delivery, deliveryBlock)
	for i := range block {
		dl := &block[i]
		dl.net, dl.fire = n, dl.deliver
		if i+1 < len(block) {
			dl.next = &block[i+1]
		}
	}
	n.free = &block[0]
}

// delivery is one message in flight. Deliveries are recycled through the
// network's free list, and fire, the engine handler, is bound once when a
// delivery is created, so scheduling a delivery allocates nothing.
type delivery struct {
	net  *Network
	msg  Message
	fire sim.Handler // deliver, bound to this delivery
	next *delivery   // free-list link
}

// deliver hands the message to its node's handler. It copies the message
// out and frees the delivery first, so the handler may send (and so reuse
// this delivery) freely.
func (d *delivery) deliver(*sim.Engine) {
	n, msg := d.net, d.msg
	d.msg = Message{} // the free list keeps no payload alive
	d.next, n.free = n.free, d
	if msg.To < 0 || int(msg.To) >= len(n.handlers) || n.handlers[msg.To] == nil {
		panic(fmt.Sprintf("netsim: message %q to unregistered node %d", msg.Kind, msg.To))
	}
	n.handlers[msg.To](msg)
}
