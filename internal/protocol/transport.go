package protocol

import "repro/internal/netsim"

// Transport is the message fabric the protocol cluster sends through:
// everything the manager and the servers need from a network, and nothing
// more. netsim.Network is the fabric of every run, in one process and on
// ecod's node 0, and the protocolday and faults goldens pin the cluster's
// behaviour over it. A serving cluster (NewServing) sends through a recorder
// instead, which hands each send back to node 0 (see remote.go).
//
// Contract: Register installs the handler that receives messages addressed
// to id (re-registering replaces); Send and Broadcast queue deliveries;
// handlers are invoked serially, never concurrently, so protocol state needs
// no locking. Broadcast is the fabric's chance to exploit hardware
// broadcast (footnote 1 of the paper): netsim counts one wire transmission
// for the whole fan-out. Broadcast does not keep tos after it returns, so
// the cluster reuses one destination slice for every invitation round.
type Transport interface {
	// Register installs the handler for a protocol participant.
	Register(id netsim.NodeID, h netsim.Handler)
	// Send queues one message for delivery.
	Send(msg netsim.Message)
	// Broadcast sends the same payload to every destination.
	Broadcast(from netsim.NodeID, tos []netsim.NodeID, kind string, payload any, size int)
	// Stats returns wire transmissions and bytes delivered so far.
	Stats() (sent int, bytes int64)
}

// netsim.Network satisfies Transport natively (the Stats method is the thin
// adapter over its Sent/Bytes counters).
var _ Transport = (*netsim.Network)(nil)
