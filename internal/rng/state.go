package rng

import "errors"

// State is the complete serializable state of a Source: the four xoshiro256++
// words, the seed material Split children derive from, and the Marsaglia
// spare cache. Restoring a State reproduces the source bit for bit — every
// subsequent draw, and every subsequently derived child stream, matches the
// original. The zero State is not a valid generator state (xoshiro256++
// would draw 0 forever); only values produced by Source.State round-trip,
// and Source.Restore rejects a state whose four words are all zero.
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
// child streams it would have derived. A state whose four words are all
// zero fails and leaves the source unchanged: a run resumed from it would
// hang in the first rejection loop that drew.
func (s *Source) Restore(st State) error {
	if st.S == [4]uint64{} {
		return errors.New("rng: restore of the all-zero state")
	}
	s.s0, s.s1, s.s2, s.s3 = st.S[0], st.S[1], st.S[2], st.S[3]
	s.base = st.Base
	s.spare = st.Spare
	s.haveSpare = st.HaveSpare
	return nil
}
