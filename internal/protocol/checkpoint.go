package protocol

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/rng"
)

var (
	_ checkpoint.Checkpointable = (*Cluster)(nil)
	_ checkpoint.StreamOwner    = (*Cluster)(nil)
)

// Checkpoint support for the message-level cluster. The serializable state
// is the manager's books (pending migrations, pending wakes, in-flight VM
// marks), the round and group counters, the statistics, the network's
// traffic counters, and every rng stream.
//
// LIMITATION (documented, enforced where cheap): messages and timers that
// are in flight inside the engine's event queue — an undelivered ASSIGN, a
// pending wake power-on timer, an open invitation round's reply collection —
// are NOT serializable; they hold closures over live objects. Capture at a
// quiescent instant: MarshalCheckpoint refuses while an invitation round is
// open, and the pending books it does capture describe procedures whose
// next step is driven by a captured clock or by the resumed run's own
// scheduling, not by a lost message.

// Stream labels, stable across processes.
const (
	masterStream       = "protocol/master"
	managerStream      = "protocol/manager"
	netStream          = "protocol/net"
	serverStreamPrefix = "protocol/server/"
)

type vmClock struct {
	VM   int   `json:"vm"`
	AtNS int64 `json:"at_ns"`
}

type wakeEntry struct {
	Server   int     `json:"server"`
	Reserved float64 `json:"reserved"`
	Count    int     `json:"count"`
}

type clusterState struct {
	NextRound    int         `json:"next_round,omitempty"`
	NextGroup    int         `json:"next_group,omitempty"`
	Inflight     []int       `json:"inflight,omitempty"`
	PendingMig   []vmClock   `json:"pending_mig,omitempty"`
	PendingWakes []wakeEntry `json:"pending_wakes,omitempty"`
	Stats        Stats       `json:"stats"`
	NetSent      int         `json:"net_sent,omitempty"`
	NetBytes     int64       `json:"net_bytes,omitempty"`
}

// MarshalCheckpoint implements checkpoint.Checkpointable. It fails while an
// invitation round is open (see the limitation note above).
func (c *Cluster) MarshalCheckpoint() (json.RawMessage, error) {
	if c.nsim == nil || c.fab != nil {
		return nil, fmt.Errorf("protocol: checkpointing requires the netsim fabric in one process; other processes' replicas are not in the checkpoint")
	}
	if len(c.rounds) > 0 {
		return nil, fmt.Errorf("protocol: %d invitation rounds open; checkpoint at a quiescent instant", len(c.rounds))
	}
	st := clusterState{
		NextRound: c.nextRound,
		NextGroup: c.nextGroup,
		Stats:     c.Stats,
		NetSent:   c.nsim.Sent,
		NetBytes:  c.nsim.Bytes,
	}
	for vm := range c.inflight {
		st.Inflight = append(st.Inflight, vm)
	}
	sort.Ints(st.Inflight)
	vms := make([]int, 0, len(c.pendingMig))
	for vm := range c.pendingMig {
		vms = append(vms, vm)
	}
	sort.Ints(vms)
	for _, vm := range vms {
		st.PendingMig = append(st.PendingMig, vmClock{VM: vm, AtNS: int64(c.pendingMig[vm])})
	}
	ids := make([]int, 0, len(c.pendingWakes))
	for id := range c.pendingWakes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		w := c.pendingWakes[id]
		st.PendingWakes = append(st.PendingWakes, wakeEntry{Server: id, Reserved: w.reserved, Count: w.count})
	}
	return json.Marshal(st)
}

// UnmarshalCheckpoint implements checkpoint.Checkpointable.
func (c *Cluster) UnmarshalCheckpoint(raw json.RawMessage) error {
	var st clusterState
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &st); err != nil {
			return fmt.Errorf("protocol: checkpoint state: %w", err)
		}
	}
	if c.nsim == nil {
		return fmt.Errorf("protocol: checkpoint restore requires the netsim fabric")
	}
	c.nextRound = st.NextRound
	c.nextGroup = st.NextGroup
	c.Stats = st.Stats
	c.nsim.Sent = st.NetSent
	c.nsim.Bytes = st.NetBytes
	c.inflight = make(map[int]bool, len(st.Inflight))
	for _, vm := range st.Inflight {
		c.inflight[vm] = true
	}
	c.pendingMig = make(map[int]time.Duration, len(st.PendingMig))
	for _, m := range st.PendingMig {
		c.pendingMig[m.VM] = time.Duration(m.AtNS)
	}
	c.pendingWakes = make(map[int]*pendingWake, len(st.PendingWakes))
	for _, w := range st.PendingWakes {
		c.pendingWakes[w.Server] = &pendingWake{reserved: w.Reserved, count: w.Count}
	}
	return nil
}

// RegisterStreams implements checkpoint.StreamOwner.
func (c *Cluster) RegisterStreams(reg *rng.Registry) {
	reg.Add(masterStream, c.master)
	reg.Add(managerStream, c.mgr)
	reg.Add(netStream, c.nsim.RNG())
	c.servers.Register(reg, serverStreamPrefix)
}

// AdoptStreams implements checkpoint.StreamOwner, creating per-server
// streams that the fresh cluster has not derived yet. A label it does not
// own fails the restore.
func (c *Cluster) AdoptStreams(states map[string]rng.State) error {
	reg := rng.NewRegistry()
	reg.Add(masterStream, c.master)
	reg.Add(managerStream, c.mgr)
	reg.Add(netStream, c.nsim.RNG())
	if err := c.servers.Adopt(reg, serverStreamPrefix, states); err != nil {
		return fmt.Errorf("protocol: %w", err)
	}
	return reg.Restore(states)
}
