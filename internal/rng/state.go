package rng

import (
	"fmt"
	"sort"
)

// State is the complete serializable state of a Source: the four xoshiro256++
// words, the seed material Split children derive from, and the Marsaglia
// spare cache. Restoring a State reproduces the source bit for bit — every
// subsequent draw, and every subsequently derived child stream, matches the
// original. The zero State is not a valid generator state (xoshiro256++
// would draw 0 forever); only values produced by Source.State round-trip,
// and Registry.Restore rejects a state whose four words are all zero.
type State struct {
	S         [4]uint64 `json:"s"`
	Base      uint64    `json:"base"`
	Spare     float64   `json:"spare,omitempty"`
	HaveSpare bool      `json:"have_spare,omitempty"`
}

// State captures the source's current state.
func (s *Source) State() State {
	return State{
		S:         [4]uint64{s.s0, s.s1, s.s2, s.s3},
		Base:      s.base,
		Spare:     s.spare,
		HaveSpare: s.haveSpare,
	}
}

// Restore overwrites the source with st. After Restore the source draws the
// exact sequence the captured source would have drawn, and derives the exact
// child streams it would have derived.
func (s *Source) Restore(st State) {
	s.s0, s.s1, s.s2, s.s3 = st.S[0], st.S[1], st.S[2], st.S[3]
	s.base = st.Base
	s.spare = st.Spare
	s.haveSpare = st.HaveSpare
}

// Registry collects live Sources under stable string labels so a checkpoint
// can capture and restore every stream a component owns. Labels must be
// unique; the label set at restore time must match the captured set exactly,
// so a stream silently missing from either side is an error instead of a
// divergence.
type Registry struct {
	labels []string
	srcs   map[string]*Source
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{srcs: make(map[string]*Source)}
}

// Add registers src under label. It panics on a nil source, an empty label,
// or a duplicate label — all are wiring bugs, not runtime conditions.
func (r *Registry) Add(label string, src *Source) {
	if src == nil {
		panic("rng: Registry.Add with nil source")
	}
	if label == "" {
		panic("rng: Registry.Add with empty label")
	}
	if _, dup := r.srcs[label]; dup {
		panic("rng: Registry.Add duplicate label " + label)
	}
	r.srcs[label] = src
	r.labels = append(r.labels, label)
}

// Labels returns the registered labels in sorted order.
func (r *Registry) Labels() []string {
	out := append([]string(nil), r.labels...)
	sort.Strings(out)
	return out
}

// States captures the state of every registered source, keyed by label.
func (r *Registry) States() map[string]State {
	out := make(map[string]State, len(r.srcs))
	for label, src := range r.srcs {
		out[label] = src.State()
	}
	return out
}

// Restore installs the captured states into the registered sources. Every
// registered label must be present in states and vice versa, and no state
// may have four zero words; otherwise it fails before installing anything.
func (r *Registry) Restore(states map[string]State) error {
	for label, st := range states {
		if _, ok := r.srcs[label]; !ok {
			return fmt.Errorf("rng: registry restore: captured stream %q has no registered source", label)
		}
		if st.S == [4]uint64{} {
			return fmt.Errorf("rng: registry restore: captured stream %q has the all-zero state", label)
		}
	}
	if len(states) != len(r.srcs) {
		return fmt.Errorf("rng: registry restore: %d captured streams, %d registered", len(states), len(r.srcs))
	}
	for label, st := range states {
		r.srcs[label].Restore(st)
	}
	return nil
}
