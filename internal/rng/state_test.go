package rng

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// Regression for the draw-order dependence bug: Split used to mix the
// mutable s0, so splitting after intervening draws produced a different
// child than splitting first. Children must depend only on seed material.
func TestSplitIndependentOfDraws(t *testing.T) {
	fresh := New(101)
	drawn := New(101)
	for i := 0; i < 1000; i++ {
		drawn.Uint64()
	}
	drawn.NormFloat64() // also dirty the spare cache

	a := fresh.Split("stream")
	b := drawn.Split("stream")
	for i := 0; i < 200; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Split child depends on the parent's draw position (draw %d)", i)
		}
	}

	ai := fresh.SplitIndex("srv", 7)
	bi := drawn.SplitIndex("srv", 7)
	for i := 0; i < 200; i++ {
		if ai.Uint64() != bi.Uint64() {
			t.Fatalf("SplitIndex child depends on the parent's draw position (draw %d)", i)
		}
	}
}

// Grandchildren must be draw-order independent too: a restored or drawn-on
// child derives the same streams as a fresh one.
func TestSplitOfSplitIndependentOfDraws(t *testing.T) {
	a := New(5).Split("child")
	b := New(5).Split("child")
	for i := 0; i < 100; i++ {
		b.Uint64()
	}
	ga := a.Split("grand")
	gb := b.Split("grand")
	for i := 0; i < 50; i++ {
		if ga.Uint64() != gb.Uint64() {
			t.Fatal("grandchild stream depends on the child's draw position")
		}
	}
}

func TestBernoulliPanicsOnNaN(t *testing.T) {
	s := New(3)
	before := s.State()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Bernoulli(NaN) did not panic")
			}
		}()
		s.Bernoulli(math.NaN())
	}()
	if s.State() != before {
		t.Fatal("Bernoulli(NaN) consumed a draw before panicking")
	}
}

// restored returns a new Source set to st by Source.Restore.
func restored(st State) *Source {
	s := new(Source)
	s.Restore(st)
	return s
}

func TestStateRoundTrip(t *testing.T) {
	s := New(77)
	for i := 0; i < 123; i++ {
		s.Uint64()
	}
	s.NormFloat64() // leave a spare cached
	if !s.haveSpare {
		t.Fatal("test setup: expected a cached spare")
	}

	st := s.State()
	clone := restored(st)
	for i := 0; i < 500; i++ {
		if s.NormFloat64() != clone.NormFloat64() {
			t.Fatalf("restored source diverged at draw %d", i)
		}
		if s.Uint64() != clone.Uint64() {
			t.Fatalf("restored source diverged at draw %d", i)
		}
	}
	// Derived streams must round-trip too.
	a := restored(st).Split("x")
	b := restored(st).Split("x")
	if a.Uint64() != b.Uint64() {
		t.Fatal("restored sources derive different children")
	}
	fresh := New(77).Split("x")
	if restored(st).Split("x").Uint64() != fresh.Uint64() {
		t.Fatal("restored source derives different children than the original lineage")
	}
}

func TestStateJSONRoundTrip(t *testing.T) {
	s := New(9)
	for i := 0; i < 41; i++ {
		s.Float64()
	}
	s.NormFloat64()
	st := s.State()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back State
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != st {
		t.Fatalf("state JSON round-trip changed bits: %+v != %+v", back, st)
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	master := New(21)
	reg := NewRegistry()
	srcs := map[string]*Source{
		"manager":  master.Split("manager"),
		"server/0": master.SplitIndex("server", 0),
		"server/1": master.SplitIndex("server", 1),
	}
	for label, src := range srcs {
		reg.Add(label, src)
	}
	srcs["manager"].Uint64()
	srcs["server/1"].NormFloat64()

	states := reg.States()
	want := map[string]uint64{}
	for label, src := range srcs {
		want[label] = restored(src.State()).Uint64()
	}

	// Trash every source, then restore.
	for _, src := range srcs {
		src.Restore(New(999).State())
	}
	if err := reg.Restore(states); err != nil {
		t.Fatal(err)
	}
	for label, src := range srcs {
		if got := src.Uint64(); got != want[label] {
			t.Fatalf("stream %q not restored: draw %d, want %d", label, got, want[label])
		}
	}

	if got, want := len(reg.Labels()), 3; got != want {
		t.Fatalf("Labels() returned %d labels, want %d", got, want)
	}

	// Mismatched label sets are errors, not silent divergence.
	delete(states, "server/0")
	if err := reg.Restore(states); err == nil {
		t.Fatal("restore with a missing stream did not error")
	}
	states["server/2"] = New(1).State()
	if err := reg.Restore(states); err == nil {
		t.Fatal("restore with an unknown stream did not error")
	}
	// A mismatch installs nothing, even when the counts agree.
	states["server/0"] = New(2).State()
	delete(states, "server/1")
	before := srcs["manager"].State()
	states["manager"] = New(3).State()
	if err := reg.Restore(states); err == nil || !strings.Contains(err.Error(), `"server/2"`) {
		t.Fatalf("restore with an unknown stream: %v", err)
	}
	if srcs["manager"].State() != before {
		t.Fatal("a failed restore installed a state")
	}
}

// The all-zero xoshiro state draws 0 forever, so a corrupt checkpoint that
// carried it would hang any rejection loop that draws from the stream.
func TestRegistryRestoreRejectsZeroState(t *testing.T) {
	reg := NewRegistry()
	a, b := New(1), New(2)
	reg.Add("a", a)
	reg.Add("b", b)
	states := reg.States()
	before := a.State()
	states["a"] = New(3).State()
	states["b"] = State{Base: 7}
	err := reg.Restore(states)
	if err == nil || !strings.Contains(err.Error(), `"b"`) {
		t.Fatalf("restore of a zero state: %v", err)
	}
	if a.State() != before {
		t.Fatal("a failed restore installed a state")
	}
}

func TestRegistryAddPanics(t *testing.T) {
	cases := []struct {
		name string
		do   func(r *Registry)
	}{
		{"nil source", func(r *Registry) { r.Add("x", nil) }},
		{"empty label", func(r *Registry) { r.Add("", New(1)) }},
		{"duplicate", func(r *Registry) { r.Add("x", New(1)); r.Add("x", New(2)) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Add did not panic", c.name)
				}
			}()
			c.do(NewRegistry())
		}()
	}
}
