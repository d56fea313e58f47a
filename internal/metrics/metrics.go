// Package metrics provides the measurement primitives the experiments need:
// fixed-bin histograms (Figs. 4–5), time series sampled on a fixed cadence
// (Figs. 6–11), hourly-rate counters (migrations and switches per hour),
// streaming mean/variance (Welford), and violation-episode tracking for the
// SLA claims (">98% of violations are shorter than 30 s").
package metrics

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Welford accumulates a streaming mean and variance.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 with no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 with <2 observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation (0 with no observations).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 with no observations).
func (w *Welford) Max() float64 { return w.max }

// Histogram is a fixed-width-bin histogram over [Lo, Hi). Observations
// outside the range are clamped into the first/last bin so mass is never
// silently dropped.
type Histogram struct {
	Lo, Hi float64
	counts []int
	total  int
}

// NewHistogram returns a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic(fmt.Sprintf("metrics: invalid histogram [%v,%v) with %d bins", lo, hi, bins))
	}
	return &Histogram{Lo: lo, Hi: hi, counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	i := int(float64(len(h.counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.total++
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Total returns the number of observations recorded.
func (h *Histogram) Total() int { return h.total }

// Count returns the raw count of bin i.
func (h *Histogram) Count(i int) int { return h.counts[i] }

// Freq returns the relative frequency of bin i (0 when empty).
func (h *Histogram) Freq(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[i]) / float64(h.total)
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.counts))
	return h.Lo + (float64(i)+0.5)*w
}

// FractionWithin returns the fraction of observations x with lo <= x < hi,
// computed from bin membership (bins fully inside the interval).
func (h *Histogram) FractionWithin(lo, hi float64) float64 {
	if h.total == 0 {
		return 0
	}
	w := (h.Hi - h.Lo) / float64(len(h.counts))
	n := 0
	for i, c := range h.counts {
		lo_i := h.Lo + float64(i)*w
		hi_i := lo_i + w
		if lo_i >= lo && hi_i <= hi {
			n += c
		}
	}
	return float64(n) / float64(h.total)
}

// Series is a time series of (time, value) samples, appended in
// non-decreasing time order.
type Series struct {
	Name string
	T    []time.Duration
	V    []float64
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample. Times must be non-decreasing.
func (s *Series) Add(t time.Duration, v float64) {
	if n := len(s.T); n > 0 && t < s.T[n-1] {
		panic(fmt.Sprintf("metrics: series %q sample at %v before last %v", s.Name, t, s.T[n-1]))
	}
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.T) }

// RateCounter converts discrete events into an events-per-hour series
// bucketed on a fixed interval, which is how the paper reports migration and
// switch frequencies (Figs. 9–10, computed every 30 minutes).
type RateCounter struct {
	Name     string
	Interval time.Duration
	buckets  map[int64]int
	total    int
}

// NewRateCounter returns a counter bucketing events on the given interval.
func NewRateCounter(name string, interval time.Duration) *RateCounter {
	if interval <= 0 {
		panic("metrics: RateCounter with non-positive interval")
	}
	return &RateCounter{Name: name, Interval: interval, buckets: map[int64]int{}}
}

// Record counts one event at virtual time t.
func (r *RateCounter) Record(t time.Duration) {
	r.buckets[int64(t/r.Interval)]++
	r.total++
}

// Total returns the total number of events recorded.
func (r *RateCounter) Total() int { return r.total }

// PerHour materializes the counter as an events-per-hour series spanning
// [0, horizon]. Buckets with no events produce zero samples.
func (r *RateCounter) PerHour(horizon time.Duration) *Series {
	s := NewSeries(r.Name)
	perHour := float64(time.Hour) / float64(r.Interval)
	n := int64(horizon / r.Interval)
	for b := int64(0); b <= n; b++ {
		s.Add(time.Duration(b)*r.Interval, float64(r.buckets[b])*perHour)
	}
	return s
}

// MaxPerHour returns the peak hourly rate over all buckets.
func (r *RateCounter) MaxPerHour() float64 {
	perHour := float64(time.Hour) / float64(r.Interval)
	m := 0.0
	for _, c := range r.buckets {
		if v := float64(c) * perHour; v > m {
			m = v
		}
	}
	return m
}

// EpisodeTracker measures contiguous violation episodes, e.g. intervals
// during which a server cannot grant all demanded CPU. Feed it one
// observation per entity per sample tick; it stitches consecutive violating
// ticks into episodes and records their durations.
type EpisodeTracker struct {
	Tick time.Duration // sampling period represented by one observation

	open      map[int]time.Duration // entity -> accumulated open episode length
	durations []time.Duration
}

// NewEpisodeTracker returns a tracker whose observations each represent one
// tick of the given duration.
func NewEpisodeTracker(tick time.Duration) *EpisodeTracker {
	if tick <= 0 {
		panic("metrics: EpisodeTracker with non-positive tick")
	}
	return &EpisodeTracker{Tick: tick, open: map[int]time.Duration{}}
}

// Observe records whether entity id is violating during the current tick.
func (e *EpisodeTracker) Observe(id int, violating bool) {
	if violating {
		e.open[id] += e.Tick
		return
	}
	if d, ok := e.open[id]; ok {
		e.durations = append(e.durations, d)
		delete(e.open, id)
	}
}

// Flush closes any episodes still open (e.g. at the end of a run) and
// appends their durations sorted by duration, so two identical runs record
// identical durations whatever order the map yields them in.
func (e *EpisodeTracker) Flush() {
	n := len(e.durations)
	for id, d := range e.open {
		e.durations = append(e.durations, d)
		delete(e.open, id)
	}
	slices.Sort(e.durations[n:])
}

// FractionShorterThan returns the fraction of completed episodes strictly
// shorter than or equal to d (0 when there are none).
func (e *EpisodeTracker) FractionShorterThan(d time.Duration) float64 {
	if len(e.durations) == 0 {
		return 0
	}
	n := 0
	for _, v := range e.durations {
		if v <= d {
			n++
		}
	}
	return float64(n) / float64(len(e.durations))
}
