package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependentOfOrder(t *testing.T) {
	m1 := New(7)
	m2 := New(7)
	// Split in different orders; streams must depend only on label.
	a1 := m1.Split("alpha")
	b1 := m1.Split("beta")
	b2 := m2.Split("beta")
	a2 := m2.Split("alpha")
	for i := 0; i < 100; i++ {
		if a1.Uint64() != a2.Uint64() {
			t.Fatal("Split(alpha) depends on split order")
		}
		if b1.Uint64() != b2.Uint64() {
			t.Fatal("Split(beta) depends on split order")
		}
	}
}

func TestSplitIndexDistinct(t *testing.T) {
	m := New(9)
	seen := map[uint64]int{}
	for i := 0; i < 500; i++ {
		v := m.SplitIndex("vm", i).Uint64()
		if j, dup := seen[v]; dup {
			t.Fatalf("streams %d and %d start with the same draw", i, j)
		}
		seen[v] = i
	}
}

func TestSplitParentUnaffected(t *testing.T) {
	a := New(11)
	b := New(11)
	_ = a.Split("child")
	_ = a.SplitIndex("c", 3)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split advanced the parent stream")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(8)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 2000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(13)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from expected %.0f", k, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBernoulliEdges(t *testing.T) {
	s := New(17)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) succeeded")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) failed")
		}
		if s.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) succeeded")
		}
		if !s.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) failed")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(19)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		const n = 100000
		hits := 0
		for i := 0; i < n; i++ {
			if s.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("Bernoulli(%v) empirical rate %v", p, got)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(23)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(29)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.ExpFloat64()
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestParetoBounds(t *testing.T) {
	s := New(31)
	lo, hi := 0.5, 10.0
	for i := 0; i < 100000; i++ {
		v := s.Pareto(1.2, lo, hi)
		if v < lo || v > hi {
			t.Fatalf("bounded Pareto out of [%v,%v]: %v", lo, hi, v)
		}
	}
}

func TestParetoPanicsOnBadParams(t *testing.T) {
	cases := []struct{ a, lo, hi float64 }{
		{0, 1, 2}, {1, 0, 2}, {1, 2, 1}, {-1, 1, 2},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Pareto(%v,%v,%v) did not panic", c.a, c.lo, c.hi)
				}
			}()
			New(1).Pareto(c.a, c.lo, c.hi)
		}()
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(37)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

// Property: Intn(n) is always within bounds for arbitrary seeds and sizes.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: same (seed,label) always reproduces the same stream prefix.
func TestQuickSplitDeterministic(t *testing.T) {
	f := func(seed uint64, label string) bool {
		a := New(seed).Split(label)
		b := New(seed).Split(label)
		for i := 0; i < 20; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Float64 stays in [0,1) across arbitrary seeds.
func TestQuickFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		for i := 0; i < 100; i++ {
			v := s.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Float64()
	}
	_ = sink
}

func BenchmarkBernoulli(b *testing.B) {
	s := New(1)
	n := 0
	for i := 0; i < b.N; i++ {
		if s.Bernoulli(0.3) {
			n++
		}
	}
	_ = n
}
