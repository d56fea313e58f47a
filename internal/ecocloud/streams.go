package ecocloud

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// Streams is a dense table of per-server rng streams indexed by server ID,
// the one every ecoCloud driver keeps. Entry id is
// master.SplitIndex("server", id), derived the first time a trial, scan or
// pick draws from it. A derived stream depends only on the master's seed
// material and the ID, so when it is derived never changes a draw; which
// entries exist is what a checkpoint captures.
type Streams struct {
	master *rng.Source
	srcs   []*rng.Source
}

// maxServerID bounds the server IDs a checkpoint may name in a stream label
// or a cooldown, so a corrupt file cannot size a dense per-server table
// past any fleet this simulator runs.
const maxServerID = 1 << 24

// NewStreams returns a table over master with room for servers 0..n-1. Get
// grows it on demand; a table that parallel workers read must be sized to
// the fleet and fully derived first, so that nothing is written
// concurrently.
func NewStreams(master *rng.Source, n int) Streams {
	return Streams{master: master, srcs: make([]*rng.Source, n)}
}

// Get returns server id's stream, deriving it on first use.
func (st *Streams) Get(id int) *rng.Source {
	if id < len(st.srcs) && st.srcs[id] != nil {
		return st.srcs[id]
	}
	src := st.master.SplitIndex("server", id)
	st.set(id, src)
	return src
}

// set stores src as entry id, growing the table to reach it.
func (st *Streams) set(id int, src *rng.Source) {
	if id >= len(st.srcs) {
		st.srcs = append(st.srcs, make([]*rng.Source, id+1-len(st.srcs))...)
	}
	st.srcs[id] = src
}

// Register adds every derived stream to reg under serverStreamPrefix + its
// decimal ID, in ID order.
func (st *Streams) Register(reg *rng.Registry) {
	for id, src := range st.srcs {
		if src != nil {
			reg.Add(serverStreamPrefix+strconv.Itoa(id), src)
		}
	}
}

// Adopt registers with reg the entry of every label in states that carries
// serverStreamPrefix, creating the entries not derived yet, so that
// reg.Restore installs the captured states into the table. Other labels are
// the caller's. An ID must be written as Register writes it: "04" or "+4"
// beside "4" would restore one entry twice, in map order.
func (st *Streams) Adopt(reg *rng.Registry, states map[string]rng.State) error {
	for label := range states {
		digits, ok := strings.CutPrefix(label, serverStreamPrefix)
		if !ok {
			continue
		}
		id, err := strconv.Atoi(digits)
		if err != nil || id < 0 || id >= maxServerID || strconv.Itoa(id) != digits {
			return fmt.Errorf("checkpoint stream %q: bad server ID", label)
		}
		if id >= len(st.srcs) || st.srcs[id] == nil {
			st.set(id, &rng.Source{})
		}
		reg.Add(label, st.srcs[id])
	}
	return nil
}
