package ecocloud

import (
	"encoding/json"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/rng"
)

var _ checkpoint.Checkpointable = (*Policy)(nil)

// Checkpoint support: the policy's mutable state is its rng streams (the
// manager stream, the master and every lazily derived per-server stream)
// and the invitation-group cursor. The configuration and the assignment
// functions are NOT state — a resume constructs the policy from the same
// Config and seed and then adopts the captured state on top.

// Stream labels. Per-server streams use serverStreamPrefix + decimal ID so
// the label set is stable across processes and runs.
const (
	masterStream       = "ecocloud/master"
	managerStream      = "ecocloud/manager"
	serverStreamPrefix = "ecocloud/server/"
)

// policyState is the serializable non-rng state (see MarshalCheckpoint).
// Decoding ignores fields it does not name, such as the per-server
// consolidation clocks ("last_mig_ns") that earlier checkpoints carry.
type policyState struct {
	NextGroup int `json:"next_group,omitempty"`
}

// RegisterStreams implements checkpoint.Checkpointable: it registers the
// manager and master streams plus every per-server stream derived so far.
// Servers whose stream was never derived have no state to capture — a
// resumed policy re-derives them identically on first use (Split depends
// only on seed material).
func (p *Policy) RegisterStreams(reg *rng.Registry) {
	reg.Add(masterStream, p.master)
	reg.Add(managerStream, p.mgr)
	p.servers.Register(reg)
}

// AdoptStreams implements checkpoint.Checkpointable: it installs the captured
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
	return json.Marshal(policyState{NextGroup: p.nextGroup})
}

// UnmarshalCheckpoint implements checkpoint.Checkpointable.
func (p *Policy) UnmarshalCheckpoint(raw json.RawMessage) error {
	var st policyState
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &st); err != nil {
			return fmt.Errorf("ecocloud: checkpoint state: %w", err)
		}
	}
	p.nextGroup = st.NextGroup
	return nil
}
