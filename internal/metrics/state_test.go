package metrics

import (
	"slices"
	"testing"
	"time"
)

func TestRateCounterStateRoundTrip(t *testing.T) {
	orig := NewRateCounter("mig", 30*time.Minute)
	for _, at := range []time.Duration{time.Minute, 29 * time.Minute, 31 * time.Minute, 3 * time.Hour, 3 * time.Hour} {
		orig.Record(at)
	}
	st := orig.State()

	restored := NewRateCounter("mig", 30*time.Minute)
	restored.SetState(st)
	if restored.Total() != orig.Total() {
		t.Fatalf("total not restored: %d want %d", restored.Total(), orig.Total())
	}
	// Continue recording on both; the materialized series must stay equal.
	orig.Record(5 * time.Hour)
	restored.Record(5 * time.Hour)
	a, b := orig.PerHour(6*time.Hour), restored.PerHour(6*time.Hour)
	for i := range a.V {
		if a.V[i] != b.V[i] || a.T[i] != b.T[i] {
			t.Fatalf("per-hour series diverged at %d", i)
		}
	}
	if orig.MaxPerHour() != restored.MaxPerHour() {
		t.Fatal("max rate diverged")
	}
}

func TestEpisodeTrackerStateRoundTrip(t *testing.T) {
	orig := NewEpisodeTracker(time.Minute)
	orig.Observe(1, true)
	orig.Observe(1, true)
	orig.Observe(2, true)
	orig.Observe(2, false) // one completed episode
	orig.Observe(3, true)  // two still open
	st := orig.State()

	restored := NewEpisodeTracker(time.Minute)
	restored.SetState(st)

	for _, e := range []*EpisodeTracker{orig, restored} {
		e.Observe(1, false) // closes the 2-minute episode
		e.Observe(3, true)
		e.Flush()
	}
	if orig.Episodes() != restored.Episodes() {
		t.Fatalf("episode count diverged: %d want %d", restored.Episodes(), orig.Episodes())
	}
	if !slices.Equal(orig.durations, restored.durations) {
		t.Fatalf("durations diverged: %v want %v", restored.durations, orig.durations)
	}
	if orig.FractionShorterThan(time.Minute) != restored.FractionShorterThan(time.Minute) {
		t.Fatal("episode fractions diverged")
	}
}
