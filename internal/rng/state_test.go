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
func restored(t *testing.T, st State) *Source {
	t.Helper()
	s := new(Source)
	if err := s.Restore(st); err != nil {
		t.Fatal(err)
	}
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
	clone := restored(t, st)
	for i := 0; i < 500; i++ {
		if s.NormFloat64() != clone.NormFloat64() {
			t.Fatalf("restored source diverged at draw %d", i)
		}
		if s.Uint64() != clone.Uint64() {
			t.Fatalf("restored source diverged at draw %d", i)
		}
	}
	// Derived streams must round-trip too.
	a := restored(t, st).Split("x")
	b := restored(t, st).Split("x")
	if a.Uint64() != b.Uint64() {
		t.Fatal("restored sources derive different children")
	}
	fresh := New(77).Split("x")
	if restored(t, st).Split("x").Uint64() != fresh.Uint64() {
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

// The all-zero xoshiro state draws 0 forever, so a corrupt checkpoint that
// carried it would hang any rejection loop that draws from the stream.
// Restore refuses it and leaves the source as it was.
func TestRestoreRejectsZeroState(t *testing.T) {
	s := New(1)
	before := s.State()
	err := s.Restore(State{Base: 7, Spare: 0.5, HaveSpare: true})
	if err == nil || !strings.Contains(err.Error(), "all-zero state") {
		t.Fatalf("restore of a zero state: %v", err)
	}
	if s.State() != before {
		t.Fatal("a failed restore changed the source")
	}
}
