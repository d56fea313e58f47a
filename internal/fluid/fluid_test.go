package fluid

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ecocloud"
	"repro/internal/rng"
)

func testConfig(exact bool) Config {
	cfg := DefaultConfig()
	cfg.Ns = 20
	cfg.Lambda = ConstRate(100)
	cfg.Mu = ConstRate(PerVMRate(0.2, cfg.Nc))
	cfg.Exact = exact
	return cfg
}

func TestStepRate(t *testing.T) {
	r := StepRate([]float64{1, 2, 3}, time.Hour)
	cases := []struct {
		t    time.Duration
		want float64
	}{
		{0, 1}, {30 * time.Minute, 1}, {time.Hour, 2}, {2*time.Hour + time.Minute, 3},
		{100 * time.Hour, 3}, // clamped to last bucket
	}
	for _, c := range cases {
		if got := r(c.t); got != c.want {
			t.Errorf("rate(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestStepRatePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty StepRate did not panic")
		}
	}()
	StepRate(nil, time.Hour)
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Ns = 0 },
		func(c *Config) { c.Nc = 0 },
		func(c *Config) { c.Lambda = nil },
		func(c *Config) { c.Mu = nil },
		func(c *Config) { c.VMLoad = 0 },
		func(c *Config) { c.VMLoad = 1.5 },
		func(c *Config) { c.Fa = ecocloud.AssignProbFunc{} },
		func(c *Config) { c.Dt = -time.Second },
		func(c *Config) { c.SeedU = -0.1 },
		func(c *Config) { c.OffU = 1.0 },
		func(c *Config) { c.MassEps = -1 },
	}
	for i, mutate := range bad {
		cfg := testConfig(false)
		mutate(&cfg)
		if _, err := Run(cfg, make([]float64, cfg.Ns), time.Hour, time.Hour); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	cfg := testConfig(false)
	if _, err := Run(cfg, make([]float64, 3), time.Hour, time.Hour); err == nil {
		t.Error("mismatched initial-condition length accepted")
	}
	if _, err := Run(cfg, make([]float64, cfg.Ns), 0, time.Hour); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestDeflateRecoversFactor(t *testing.T) {
	// Build prod of 6 random linear factors; deflating factor j must equal
	// the direct product of the other 5.
	src := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		n := 6
		f := make([]float64, n)
		for i := range f {
			f[i] = src.Float64()
		}
		full := buildProduct(f)
		m := newModel(Config{Ns: n})
		for j := 0; j < n; j++ {
			got := m.deflate(full, 1-f[j], f[j], n)
			others := make([]float64, 0, n-1)
			for i, fi := range f {
				if i != j {
					others = append(others, fi)
				}
			}
			want := buildProduct(others)
			for k := 0; k < n; k++ {
				if math.Abs(got[k]-want[k]) > 1e-9 {
					t.Fatalf("trial %d server %d coeff %d: %v vs %v", trial, j, k, got[k], want[k])
				}
			}
		}
	}
}

// buildProduct returns the coefficients of prod_i((1-f_i) + f_i x).
func buildProduct(f []float64) []float64 {
	c := make([]float64, len(f)+1)
	c[0] = 1
	deg := 0
	for _, fi := range f {
		a, b := 1-fi, fi
		deg++
		for k := deg; k >= 1; k-- {
			c[k] = a*c[k] + b*c[k-1]
		}
		c[0] *= a
	}
	return c
}

func TestDeflateExtremeFactors(t *testing.T) {
	// f near 0 and near 1 stress both recurrence directions.
	f := []float64{1e-12, 1 - 1e-12, 0.5, 0.999999, 0.000001}
	full := buildProduct(f)
	m := newModel(Config{Ns: len(f)})
	for j := range f {
		got := m.deflate(full, 1-f[j], f[j], len(f))
		others := make([]float64, 0, len(f)-1)
		for i, fi := range f {
			if i != j {
				others = append(others, fi)
			}
		}
		want := buildProduct(others)
		for k := range want[:len(f)] {
			if math.Abs(got[k]-want[k]) > 1e-6 {
				t.Fatalf("server %d coeff %d: %v vs %v", j, k, got[k], want[k])
			}
		}
	}
}

// The exact model must conserve arrival mass: summed over servers, the
// arrival terms equal lambda*VMLoad whenever someone can accept (the
// normalization in Eq. 6 guarantees it).
func TestExactModelConservesArrivals(t *testing.T) {
	cfg := testConfig(true)
	m := newModel(cfg)
	src := rng.New(9)
	for trial := 0; trial < 20; trial++ {
		u := make([]float64, cfg.Ns)
		for i := range u {
			u[i] = src.Float64() * 0.85 // inside (0, Ta)
		}
		out := make([]float64, cfg.Ns)
		m.deriv(out, u, 0)
		// Recover arrival terms by adding back the decay.
		decay := float64(cfg.Nc) * cfg.Mu(0)
		sum := 0.0
		for s := range out {
			sum += out[s] + decay*u[s]
		}
		want := cfg.Lambda(0) * cfg.VMLoad
		if math.Abs(sum-want) > 1e-6*want {
			t.Fatalf("trial %d: total arrival mass %v, want %v", trial, sum, want)
		}
	}
}

// In a perfectly symmetric state every server receives lambda*VMLoad/Ns.
func TestExactModelSymmetric(t *testing.T) {
	cfg := testConfig(true)
	m := newModel(cfg)
	u := make([]float64, cfg.Ns)
	for i := range u {
		u[i] = 0.5
	}
	out := make([]float64, cfg.Ns)
	m.deriv(out, u, 0)
	decay := float64(cfg.Nc) * cfg.Mu(0)
	want := cfg.Lambda(0) * cfg.VMLoad / float64(cfg.Ns)
	for s := range out {
		arr := out[s] + decay*u[s]
		if math.Abs(arr-want) > 1e-9*want {
			t.Fatalf("server %d arrival %v, want %v", s, arr, want)
		}
	}
}

// The approximate model (Eq. 11) agrees with the exact one in the symmetric
// state and conserves mass too.
func TestApproxMatchesExactSymmetric(t *testing.T) {
	ce, ca := testConfig(true), testConfig(false)
	me, ma := newModel(ce), newModel(ca)
	u := make([]float64, ce.Ns)
	for i := range u {
		u[i] = 0.6
	}
	oute := make([]float64, ce.Ns)
	outa := make([]float64, ce.Ns)
	me.deriv(oute, u, 0)
	ma.deriv(outa, u, 0)
	for s := range u {
		if math.Abs(oute[s]-outa[s]) > 1e-9 {
			t.Fatalf("server %d: exact %v vs approx %v", s, oute[s], outa[s])
		}
	}
}

func TestDecayOnlyMatchesExponential(t *testing.T) {
	cfg := testConfig(false)
	cfg.Lambda = ConstRate(0)
	muVM := 0.5 // per hour
	cfg.Mu = ConstRate(PerVMRate(muVM, cfg.Nc))
	cfg.MassEps = 0 // no reactivation
	cfg.OffU = 0    // no clamping: pure exponential
	init := make([]float64, cfg.Ns)
	for i := range init {
		init[i] = 0.8
	}
	res, err := Run(cfg, init, 4*time.Hour, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range res.Times {
		want := 0.8 * math.Exp(-muVM*tt.Hours())
		for s := range init {
			if math.Abs(res.U[i][s]-want) > 1e-4 {
				t.Fatalf("t=%v server %d: u=%v, want %v", tt, s, res.U[i][s], want)
			}
		}
	}
}

// The equations have no migration term (§IV compares them with a simulation
// whose migrations are inhibited), so without churn nothing moves.
func TestMigrationDisabledModelIsInertWithoutChurn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ns = 20
	cfg.Lambda = ConstRate(0)
	cfg.Mu = ConstRate(0)
	cfg.MassEps = 0 // no activation seeding
	init := make([]float64, cfg.Ns)
	for i := range init {
		init[i] = 0.15 + 0.20*float64(i)/float64(cfg.Ns-1)
	}
	res, err := Run(cfg, init, 6*time.Hour, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	final := res.U[len(res.U)-1]
	for i := range init {
		if math.Abs(final[i]-init[i]) > 1e-9 {
			t.Fatalf("paper model moved without churn: server %d %v -> %v", i, init[i], final[i])
		}
	}
}

func TestRunSampleCadence(t *testing.T) {
	cfg := testConfig(false)
	res, err := Run(cfg, make([]float64, cfg.Ns), 2*time.Hour, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) != 5 { // 0, 30, 60, 90, 120
		t.Fatalf("samples = %d, want 5", len(res.Times))
	}
	if res.Times[4] != 2*time.Hour {
		t.Fatalf("last sample at %v", res.Times[4])
	}
}

func TestActivationSeedsWhenMassLow(t *testing.T) {
	cfg := testConfig(false)
	// All servers start hibernated: fa mass is 0, load is arriving.
	res, err := Run(cfg, make([]float64, cfg.Ns), time.Hour, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalActive(0.001) == 0 {
		t.Fatal("no server was ever activated despite arriving load")
	}
}

func TestConsolidationDynamics(t *testing.T) {
	// Start non-consolidated: 20 servers spread over u=0.10..0.30 (the
	// paper's Fig. 12 initial state). The spread matters: a perfectly
	// symmetric state is an equilibrium of the deterministic ODE, and it is
	// the utilization differences that fa amplifies into consolidation.
	cfg := testConfig(true)
	cfg.Lambda = ConstRate(120)
	cfg.Mu = ConstRate(PerVMRate(0.6, cfg.Nc))
	// Equilibrium total utilization = lambda*VMLoad/mu_vm = 120*0.02/0.6 = 4.0
	// servers' worth of load.
	init := make([]float64, cfg.Ns)
	for i := range init {
		init[i] = 0.10 + 0.20*float64(i)/float64(cfg.Ns-1)
	}
	res, err := Run(cfg, init, 12*time.Hour, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	final := res.FinalActive(0.01)
	if final >= cfg.Ns {
		t.Fatalf("no consolidation: %d/%d servers still active", final, cfg.Ns)
	}
	// ~4 servers' worth of load at u~0.9 needs ~5 servers; allow 3..9.
	if final < 3 || final > 9 {
		t.Fatalf("final active = %d, want ~5 (load = 4 server-equivalents at Ta=0.9)", final)
	}
	// Active servers should sit near Ta, hibernated at ~0.
	last := res.U[len(res.U)-1]
	for s, u := range last {
		if u > 0.05 && u < 0.3 {
			t.Fatalf("server %d stuck at intermediate utilization %v", s, u)
		}
		if u > 0.95 {
			t.Fatalf("server %d above Ta: %v", s, u)
		}
	}
}

func TestExactAndApproxConsolidateSimilarly(t *testing.T) {
	// The paper reports 43 (model) vs 45 (sim) servers; here we just require
	// the two model variants to land within a couple of servers of each
	// other on the same scenario.
	mk := func(exact bool) int {
		cfg := testConfig(exact)
		cfg.Lambda = ConstRate(150)
		cfg.Mu = ConstRate(PerVMRate(0.5, cfg.Nc))
		init := make([]float64, cfg.Ns)
		for i := range init {
			init[i] = 0.15 + 0.20*float64(i)/float64(cfg.Ns-1)
		}
		res, err := Run(cfg, init, 10*time.Hour, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalActive(0.01)
	}
	e, a := mk(true), mk(false)
	if d := e - a; d < -2 || d > 2 {
		t.Fatalf("exact=%d approx=%d servers: variants disagree", e, a)
	}
}

// Property: utilizations never go negative or NaN under random rates.
func TestQuickTrajectoriesStayFinite(t *testing.T) {
	f := func(seed uint64, lamRaw, muRaw uint8) bool {
		src := rng.New(seed)
		cfg := testConfig(seed%2 == 0)
		cfg.Ns = 8
		cfg.Lambda = ConstRate(float64(lamRaw))
		cfg.Mu = ConstRate(PerVMRate(0.05+float64(muRaw)/64, cfg.Nc))
		init := make([]float64, cfg.Ns)
		for i := range init {
			init[i] = src.Float64() * 0.9
		}
		res, err := Run(cfg, init, 2*time.Hour, 30*time.Minute)
		if err != nil {
			return false
		}
		for _, row := range res.U {
			for _, u := range row {
				if u < 0 || math.IsNaN(u) || math.IsInf(u, 0) || u > 2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDerivExact100(b *testing.B) {
	cfg := testConfig(true)
	cfg.Ns = 100
	m := newModel(cfg)
	src := rng.New(1)
	u := make([]float64, cfg.Ns)
	for i := range u {
		u[i] = src.Float64() * 0.9
	}
	out := make([]float64, cfg.Ns)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.deriv(out, u, 0)
	}
}

func BenchmarkDerivApprox100(b *testing.B) {
	cfg := testConfig(false)
	cfg.Ns = 100
	m := newModel(cfg)
	u := make([]float64, cfg.Ns)
	for i := range u {
		u[i] = 0.5
	}
	out := make([]float64, cfg.Ns)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.deriv(out, u, 0)
	}
}

func TestDerivativeHelper(t *testing.T) {
	cfg := testConfig(false)
	u := make([]float64, cfg.Ns)
	for i := range u {
		u[i] = 0.5
	}
	out, err := Derivative(cfg, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != cfg.Ns {
		t.Fatalf("derivative length %d", len(out))
	}
	if _, err := Derivative(cfg, u[:3], 0); err == nil {
		t.Fatal("mismatched state length accepted")
	}
}

// Halving the RK4 step must not change trajectories materially: the
// integrator is far inside its stability region at the default step.
func TestRK4StepRobustness(t *testing.T) {
	base := testConfig(false)
	base.Lambda = ConstRate(150)
	base.Mu = ConstRate(PerVMRate(0.5, base.Nc))
	init := make([]float64, base.Ns)
	for i := range init {
		init[i] = 0.15 + 0.20*float64(i)/float64(base.Ns-1)
	}
	run := func(dt time.Duration) [][]float64 {
		cfg := base
		cfg.Dt = dt
		res, err := Run(cfg, init, 6*time.Hour, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return res.U
	}
	coarse := run(2 * time.Minute)
	fine := run(30 * time.Second)
	for i := range coarse {
		for s := range coarse[i] {
			if d := math.Abs(coarse[i][s] - fine[i][s]); d > 5e-3 {
				t.Fatalf("sample %d server %d: step sensitivity %v", i, s, d)
			}
		}
	}
}
