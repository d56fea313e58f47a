package ecocloud

import "repro/internal/rng"

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
