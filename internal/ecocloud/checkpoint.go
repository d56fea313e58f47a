package ecocloud

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/rng"
)

var (
	_ checkpoint.Checkpointable = (*Policy)(nil)
	_ checkpoint.StreamOwner    = (*Policy)(nil)
)

// Checkpoint support: the policy's mutable state is its rng streams (the
// manager stream, the master and every lazily derived per-server stream),
// the cooldown clocks, and the invitation-group rotation counter. The
// configuration and the assignment functions are NOT state — a resume
// constructs the policy from the same Config and seed and then adopts the
// captured state on top.

// Stream labels. Per-server streams use serverStreamPrefix + decimal ID so
// the label set is stable across processes and runs.
const (
	masterStream       = "ecocloud/master"
	managerStream      = "ecocloud/manager"
	serverStreamPrefix = "ecocloud/server/"
)

// policyState is the serializable non-rng state (see MarshalCheckpoint).
type policyState struct {
	// LastMigNS holds the cooldown clocks as (server ID, virtual time) pairs
	// sorted by ID, so the encoded bytes are deterministic.
	LastMigNS []serverClock `json:"last_mig_ns,omitempty"`
	NextGroup int           `json:"next_group,omitempty"`
}

type serverClock struct {
	Server int   `json:"server"`
	AtNS   int64 `json:"at_ns"`
}

// RegisterStreams implements checkpoint.StreamOwner: it registers the
// manager and master streams plus every per-server stream derived so far.
// Servers whose stream was never derived have no state to capture — a
// resumed policy re-derives them identically on first use (Split depends
// only on seed material).
func (p *Policy) RegisterStreams(reg *rng.Registry) {
	reg.Add(masterStream, p.master)
	reg.Add(managerStream, p.mgr)
	p.servers.Register(reg)
}

// AdoptStreams implements checkpoint.StreamOwner: it installs the captured
// stream states, creating per-server streams that the fresh policy has not
// derived yet. A label it does not own fails the restore.
func (p *Policy) AdoptStreams(states map[string]rng.State) error {
	reg := rng.NewRegistry()
	reg.Add(masterStream, p.master)
	reg.Add(managerStream, p.mgr)
	if err := p.servers.Adopt(reg, states); err != nil {
		return fmt.Errorf("ecocloud: %w", err)
	}
	return reg.Restore(states)
}

// MarshalCheckpoint implements checkpoint.Checkpointable.
func (p *Policy) MarshalCheckpoint() (json.RawMessage, error) {
	st := policyState{NextGroup: p.nextGroup}
	for id, at := range p.lastMig {
		if at != noMig {
			st.LastMigNS = append(st.LastMigNS, serverClock{Server: id, AtNS: int64(at)})
		}
	}
	return json.Marshal(st)
}

// UnmarshalCheckpoint implements checkpoint.Checkpointable.
func (p *Policy) UnmarshalCheckpoint(raw json.RawMessage) error {
	var st policyState
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &st); err != nil {
			return fmt.Errorf("ecocloud: checkpoint state: %w", err)
		}
	}
	p.lastMig = nil
	for _, c := range st.LastMigNS {
		if c.Server < 0 || c.Server >= maxServerID {
			return fmt.Errorf("ecocloud: checkpoint cooldown of bad server ID %d", c.Server)
		}
		p.lastMig.set(c.Server, time.Duration(c.AtNS))
	}
	p.nextGroup = st.NextGroup
	return nil
}
