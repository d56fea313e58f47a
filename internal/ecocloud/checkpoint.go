package ecocloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/rng"
)

var _ checkpoint.Checkpointable = (*Policy)(nil)

// Checkpoint support: the policy's mutable state is its rng streams (the
// master, the manager stream and every lazily derived per-server stream)
// and the invitation-group cursor. The configuration and the assignment
// functions are NOT state — a resume constructs the policy from the same
// Config and seed and then restores the captured state on top.

// maxServerID bounds the server IDs a checkpoint may name, so a corrupt
// file cannot size a dense per-server table past any fleet this simulator
// runs.
const maxServerID = 1 << 24

// policyState is the policy's checkpoint encoding. Servers lists every
// per-server stream derived so far, in rising ID order; a stream never
// derived has no state to capture, and a resumed policy derives it on
// first use exactly as the captured one would have (SplitIndex depends
// only on the master's seed material).
type policyState struct {
	NextGroup int            `json:"next_group,omitempty"`
	Master    *rng.State     `json:"master"`
	Manager   *rng.State     `json:"manager"`
	Servers   []serverStream `json:"servers,omitempty"`
}

// serverStream is one server's stream state, keyed by its ID.
type serverStream struct {
	ID int `json:"id"`
	rng.State
}

// MarshalCheckpoint implements checkpoint.Checkpointable.
func (p *Policy) MarshalCheckpoint() (json.RawMessage, error) {
	master, mgr := p.master.State(), p.mgr.State()
	st := policyState{NextGroup: p.nextGroup, Master: &master, Manager: &mgr}
	for id, src := range p.servers.srcs {
		if src != nil {
			st.Servers = append(st.Servers, serverStream{ID: id, State: src.State()})
		}
	}
	return json.Marshal(st)
}

// UnmarshalCheckpoint implements checkpoint.Checkpointable on a policy
// fresh from New. It fails, installing nothing, on a key the policy does
// not write, a missing master or manager stream, a server ID out of order
// or range, or a stream in the all-zero state.
func (p *Policy) UnmarshalCheckpoint(raw json.RawMessage) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var st policyState
	if err := dec.Decode(&st); err != nil {
		return fmt.Errorf("ecocloud: checkpoint state: %w", err)
	}
	if st.Master == nil || st.Manager == nil {
		return errors.New("ecocloud: checkpoint state lacks the master or the manager stream")
	}
	master, err := restoreStream("master", *st.Master)
	if err != nil {
		return err
	}
	mgr, err := restoreStream("manager", *st.Manager)
	if err != nil {
		return err
	}
	servers := make([]*rng.Source, len(st.Servers))
	for i, s := range st.Servers {
		if s.ID < 0 || s.ID >= maxServerID || i > 0 && s.ID <= st.Servers[i-1].ID {
			return fmt.Errorf("ecocloud: checkpoint server stream %d: IDs must rise strictly within [0, %d)", s.ID, maxServerID)
		}
		if servers[i], err = restoreStream(fmt.Sprintf("server %d", s.ID), s.State); err != nil {
			return err
		}
	}
	*p.master, *p.mgr = *master, *mgr
	for i, s := range st.Servers {
		p.servers.set(s.ID, servers[i])
	}
	p.nextGroup = st.NextGroup
	return nil
}

// restoreStream returns a source in state st, or an error naming the
// stream.
func restoreStream(name string, st rng.State) (*rng.Source, error) {
	src := new(rng.Source)
	if err := src.Restore(st); err != nil {
		return nil, fmt.Errorf("ecocloud: checkpoint %s stream: %w", name, err)
	}
	return src, nil
}
