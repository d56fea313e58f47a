// Package rng provides a deterministic, splittable pseudo-random number
// generator used by every stochastic component of the simulator.
//
// Reproducibility is a hard requirement for the experiments: a whole run must
// be replayable from a single uint64 seed, and components that execute in
// parallel (server Bernoulli trials within an invitation round, per-VM trace
// synthesis) must draw from independent streams so that the schedule of
// goroutines cannot change the result. The generator is xoshiro256++ seeded
// through SplitMix64; streams are derived by hashing a (seed, label) pair, so
// a component's stream depends only on the master seed and its own stable
// label, never on creation order.
package rng

import "math"

// Source is a xoshiro256++ pseudo-random generator. It is NOT safe for
// concurrent use; split one stream per goroutine instead (see Split).
type Source struct {
	s0, s1, s2, s3 uint64

	// base is the first state word as seeded at construction. Split and
	// SplitIndex derive children from it — never from the mutable s0 — so the
	// streams a source derives are independent of how many draws it has made.
	base uint64

	// Cached second variate for NormFloat64 (Marsaglia polar method).
	spare     float64
	haveSpare bool
}

// splitmix64 advances x and returns the next SplitMix64 output. It is used
// both for seeding xoshiro state and for label hashing.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds yield independent
// streams; the all-zero xoshiro state is unreachable because SplitMix64 is a
// bijection and at least one of four consecutive outputs is nonzero.
func New(seed uint64) *Source {
	var s Source
	x := seed
	s.s0 = splitmix64(&x)
	s.s1 = splitmix64(&x)
	s.s2 = splitmix64(&x)
	s.s3 = splitmix64(&x)
	s.base = s.s0
	return &s
}

// hashLabel folds a label string into a uint64 using FNV-1a widened through
// SplitMix64, so similar labels produce unrelated stream seeds.
func hashLabel(label string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	return splitmix64(&h)
}

// Split derives an independent stream identified by label. The derived stream
// depends only on the receiver's seed material and the label — never on how
// many draws the receiver has made — so components can be created in any
// order (or in parallel) without changing their draws.
func (s *Source) Split(label string) *Source {
	mix := s.base ^ hashLabel(label)
	return New(mix)
}

// SplitIndex derives an independent stream identified by an integer index,
// e.g. one stream per VM or per server. Like Split, the child depends only on
// the receiver's seed material, the label and the index.
func (s *Source) SplitIndex(label string, i int) *Source {
	mix := s.base ^ hashLabel(label) ^ splitmixOnce(uint64(i)+0x632be59bd9b4e019)
	return New(mix)
}

func splitmixOnce(x uint64) uint64 { return splitmix64(&x) }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	r := rotl(s.s0+s.s3, 23) + s.s0
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return r
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and branch-light.
	un := uint64(n)
	v := s.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			v = s.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}

// Bernoulli performs a Bernoulli trial with success probability p
// (clamped to [0,1]) and reports whether it succeeded. It panics on NaN: a
// NaN probability is always a caller bug, and silently consuming a draw for
// it would shift the alignment of every later draw on the stream.
func (s *Source) Bernoulli(p float64) bool {
	if math.IsNaN(p) {
		panic("rng: Bernoulli called with NaN probability")
	}
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// NormFloat64 returns a standard normal variate via the Marsaglia polar
// method. Two variates are generated per rejection loop; the spare is cached.
func (s *Source) NormFloat64() float64 {
	if s.haveSpare {
		s.haveSpare = false
		return s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.spare = v * f
		s.haveSpare = true
		return u * f
	}
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1) by inversion.
func (s *Source) ExpFloat64() float64 {
	// 1-Float64() is in (0,1], so Log never sees 0.
	return -math.Log(1 - s.Float64())
}

// LogNormal returns a log-normal variate with the given parameters of the
// underlying normal (mu, sigma).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.NormFloat64())
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Pareto returns a bounded Pareto variate on [lo, hi] with shape alpha,
// drawn by inversion. Used for heavy-tailed VM demand synthesis.
func (s *Source) Pareto(alpha, lo, hi float64) float64 {
	if lo <= 0 || hi <= lo || alpha <= 0 {
		panic("rng: invalid bounded Pareto parameters")
	}
	u := s.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}
