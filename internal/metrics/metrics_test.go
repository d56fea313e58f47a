package metrics

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestWelfordAgainstClosedForm(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != len(xs) {
		t.Fatalf("N = %d, want %d", w.N(), len(xs))
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", w.Mean())
	}
	// Sample variance of this classic set is 32/7.
	if math.Abs(w.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max = %v/%v, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.Stddev() != 0 {
		t.Fatal("empty Welford should report zeros")
	}
	w.Add(3.5)
	if w.Mean() != 3.5 || w.Variance() != 0 {
		t.Fatalf("single-obs mean/var = %v/%v", w.Mean(), w.Variance())
	}
}

// Property: Welford matches the two-pass formulas for arbitrary inputs.
func TestQuickWelfordMatchesTwoPass(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) / 128.0
		}
		var w Welford
		sum := 0.0
		for _, x := range xs {
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(len(xs)-1)
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Variance()-variance) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	h.Add(0.05) // bin 0
	h.Add(0.15) // bin 1
	h.Add(0.95) // bin 9
	h.Add(0.999)
	if h.Count(0) != 1 || h.Count(1) != 1 || h.Count(9) != 2 {
		t.Fatalf("counts = %v %v %v", h.Count(0), h.Count(1), h.Count(9))
	}
	if h.Total() != 4 {
		t.Fatalf("total = %d", h.Total())
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-3)
	h.Add(42)
	h.Add(1.0) // exactly Hi clamps into last bin
	if h.Count(0) != 1 || h.Count(3) != 2 {
		t.Fatalf("clamping wrong: first=%d last=%d", h.Count(0), h.Count(3))
	}
}

func TestHistogramFreqAndCenter(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for i := 0; i < 8; i++ {
		h.Add(5)
	}
	for i := 0; i < 2; i++ {
		h.Add(55)
	}
	if math.Abs(h.Freq(0)-0.8) > 1e-12 {
		t.Fatalf("Freq(0) = %v", h.Freq(0))
	}
	if h.BinCenter(0) != 5 || h.BinCenter(9) != 95 {
		t.Fatalf("centers = %v %v", h.BinCenter(0), h.BinCenter(9))
	}
}

func TestHistogramFractionWithin(t *testing.T) {
	h := NewHistogram(-40, 40, 80) // 1-wide bins
	for i := 0; i < 94; i++ {
		h.Add(0.5) // in [-10,10)
	}
	for i := 0; i < 6; i++ {
		h.Add(25.5)
	}
	got := h.FractionWithin(-10, 10)
	if math.Abs(got-0.94) > 1e-12 {
		t.Fatalf("FractionWithin = %v, want 0.94", got)
	}
}

func TestHistogramPanicsOnBadShape(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(1, 1, 5) },
		func() { NewHistogram(2, 1, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad histogram shape did not panic")
				}
			}()
			f()
		}()
	}
}

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("x")
	if s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 || s.Last() != 0 {
		t.Fatal("empty series should report zeros")
	}
	s.Add(0, 1)
	s.Add(time.Minute, 3)
	s.Add(2*time.Minute, 2)
	if s.Len() != 3 || s.Max() != 3 || s.Min() != 1 || s.Last() != 2 {
		t.Fatalf("len/max/min/last = %d/%v/%v/%v", s.Len(), s.Max(), s.Min(), s.Last())
	}
	if s.Mean() != 2 {
		t.Fatalf("mean = %v", s.Mean())
	}
}

func TestSeriesRejectsTimeTravel(t *testing.T) {
	s := NewSeries("x")
	s.Add(time.Minute, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("decreasing timestamps did not panic")
		}
	}()
	s.Add(time.Second, 2)
}

func TestSeriesNegativeValues(t *testing.T) {
	s := NewSeries("neg")
	s.Add(0, -5)
	s.Add(time.Second, -1)
	if s.Min() != -5 || s.Max() != -1 {
		t.Fatalf("min/max = %v/%v, want -5/-1", s.Min(), s.Max())
	}
}

func TestRateCounterPerHour(t *testing.T) {
	r := NewRateCounter("mig", 30*time.Minute)
	// 3 events in the first half-hour, 1 in the second.
	r.Record(time.Minute)
	r.Record(10 * time.Minute)
	r.Record(29 * time.Minute)
	r.Record(45 * time.Minute)
	s := r.PerHour(time.Hour)
	if s.Len() != 3 { // buckets 0, 1, 2
		t.Fatalf("series length = %d, want 3", s.Len())
	}
	if s.V[0] != 6 { // 3 events per half hour = 6/hour
		t.Fatalf("bucket 0 rate = %v, want 6", s.V[0])
	}
	if s.V[1] != 2 {
		t.Fatalf("bucket 1 rate = %v, want 2", s.V[1])
	}
	if s.V[2] != 0 {
		t.Fatalf("bucket 2 rate = %v, want 0", s.V[2])
	}
	if r.Total() != 4 {
		t.Fatalf("total = %d", r.Total())
	}
	if r.MaxPerHour() != 6 {
		t.Fatalf("max per hour = %v", r.MaxPerHour())
	}
}

func TestRateCounterEmptyHorizon(t *testing.T) {
	r := NewRateCounter("none", time.Hour)
	s := r.PerHour(3 * time.Hour)
	if s.Len() != 4 {
		t.Fatalf("series length = %d, want 4 zero buckets", s.Len())
	}
	for _, v := range s.V {
		if v != 0 {
			t.Fatal("expected all-zero series")
		}
	}
}

func TestEpisodeTrackerStitchesTicks(t *testing.T) {
	e := NewEpisodeTracker(10 * time.Second)
	// Entity 1: 3 violating ticks, then clean -> one 30s episode.
	e.Observe(1, true)
	e.Observe(1, true)
	e.Observe(1, true)
	e.Observe(1, false)
	// Entity 2: single violating tick -> one 10s episode.
	e.Observe(2, true)
	e.Observe(2, false)
	if e.Episodes() != 2 {
		t.Fatalf("episodes = %d, want 2", e.Episodes())
	}
	if got := e.FractionShorterThan(10 * time.Second); got != 0.5 {
		t.Fatalf("fraction <=10s = %v, want 0.5", got)
	}
	if got := e.FractionShorterThan(30 * time.Second); got != 1 {
		t.Fatalf("fraction <=30s = %v, want 1", got)
	}
}

func TestEpisodeTrackerIndependentEntities(t *testing.T) {
	e := NewEpisodeTracker(time.Second)
	e.Observe(1, true)
	e.Observe(2, true)
	e.Observe(1, false)
	e.Observe(2, true)
	e.Observe(2, false)
	if e.Episodes() != 2 {
		t.Fatalf("episodes = %d, want 2", e.Episodes())
	}
	if want := []time.Duration{time.Second, 2 * time.Second}; !slices.Equal(e.durations, want) {
		t.Fatalf("durations = %v, want %v", e.durations, want)
	}
}

func TestEpisodeTrackerFlush(t *testing.T) {
	e := NewEpisodeTracker(time.Second)
	e.Observe(7, true)
	e.Observe(7, true)
	if e.Episodes() != 0 {
		t.Fatal("open episode counted before flush")
	}
	e.Flush()
	if e.Episodes() != 1 {
		t.Fatalf("episodes after flush = %d, want 1", e.Episodes())
	}
	e.Flush() // idempotent: nothing open anymore
	if e.Episodes() != 1 {
		t.Fatal("second flush added episodes")
	}
}

// Flush closes open episodes sorted by duration, whatever order the map
// holds them in, so identical runs record identical durations.
func TestEpisodeTrackerFlushSortedByDuration(t *testing.T) {
	e := NewEpisodeTracker(time.Minute)
	const open = 64
	for id := 0; id < open; id++ {
		for tick := 0; tick <= id; tick++ {
			e.Observe(id, true)
		}
	}
	e.Flush()
	if len(e.durations) != open {
		t.Fatalf("%d durations after flush, want %d", len(e.durations), open)
	}
	for id, d := range e.durations {
		if want := time.Duration(id+1) * time.Minute; d != want {
			t.Fatalf("durations[%d] = %v, want %v", id, d, want)
		}
	}
}

func TestEpisodeTrackerEmpty(t *testing.T) {
	e := NewEpisodeTracker(time.Second)
	if e.FractionShorterThan(time.Minute) != 0 || e.Episodes() != 0 {
		t.Fatal("empty tracker should report zeros")
	}
}

// Property: histogram total always equals the number of Adds, and frequencies
// sum to ~1 for any inputs.
func TestQuickHistogramMassConservation(t *testing.T) {
	f := func(raw []float32) bool {
		h := NewHistogram(0, 1, 17)
		for _, v := range raw {
			h.Add(float64(v))
		}
		if h.Total() != len(raw) {
			return false
		}
		if len(raw) == 0 {
			return true
		}
		sum := 0.0
		for i := 0; i < h.Bins(); i++ {
			sum += h.Freq(i)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
