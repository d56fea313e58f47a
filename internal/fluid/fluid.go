// Package fluid implements the paper's mathematical analysis (§IV): a system
// of differential equations, inspired by fluid dynamics, describing how the
// assignment procedure evolves per-server utilization,
//
//	du_s/dt = -Nc*mu(t)*u_s + lambda(t) * A_s(t) * fa(u_s)        (Eq. 5)
//
// where A_s is the probability mass a new VM lands on server s given the
// Bernoulli availability of every server. The package provides both the
// exact A_s (Eq. 6–9, a combinatorial sum over the number of accepting
// servers, evaluated via polynomial products) and the paper's approximate
// model (Eq. 11, A_s*fa proportional to fa(u_s)), plus a fourth-order
// Runge–Kutta integrator and the discrete hibernation/activation rules the
// paper grafts onto the continuous dynamics.
//
// Exact A_s cost: the coefficient vector of prod_{i!=s}((1-f_i) + f_i*x)
// gives P_k^(s) for every k at once. The full product over all servers is
// built in O(Ns^2) and each server's factor is divided back out by stable
// synthetic division (choosing the recurrence direction by which of the
// factor's two coefficients dominates), so one derivative evaluation costs
// O(Ns^2) instead of the naive O(Ns^3).
package fluid

import (
	"fmt"
	"math"
	"time"

	"repro/internal/ecocloud"
)

// Rate is a time-varying rate: callers receive the virtual time and return
// the instantaneous rate per hour.
type Rate func(t time.Duration) float64

// ConstRate returns a constant rate.
func ConstRate(v float64) Rate { return func(time.Duration) float64 { return v } }

// StepRate returns the piecewise-constant rate defined by one value per
// bucket (clamping to the last bucket beyond the end), which is how rates
// extracted from traces (trace.Set.Rates) are fed to the model.
func StepRate(values []float64, bucket time.Duration) Rate {
	if len(values) == 0 || bucket <= 0 {
		panic("fluid: StepRate needs values and a positive bucket")
	}
	return func(t time.Duration) float64 {
		i := int(t / bucket)
		if i < 0 {
			i = 0
		}
		if i >= len(values) {
			i = len(values) - 1
		}
		return values[i]
	}
}

// Config parameterizes the fluid model.
type Config struct {
	Ns int // number of servers
	Nc int // cores per server

	// Lambda is the aggregate VM arrival rate (VMs/hour); Mu is the per-core
	// service rate (1/hour). With a per-VM departure rate mu_vm, the paper's
	// -Nc*mu*u term equals -mu_vm*u when Mu = mu_vm/Nc (see PerVMRate).
	Lambda Rate
	Mu     Rate

	// VMLoad is the utilization one VM contributes to a server (mean VM
	// demand / server capacity); it scales the arrival term.
	VMLoad float64

	// Fa is the assignment probability function under analysis.
	Fa ecocloud.AssignProbFunc

	// Exact selects the combinatorial A_s (Eq. 6–9); false uses Eq. 11.
	Exact bool

	// Dt is the RK4 step (default 1 minute when zero).
	Dt time.Duration

	// SeedU is the utilization a hibernated server is activated with when
	// the fleet's acceptance mass dries up while load is arriving; fa(0)=0,
	// so without this discrete rule no server could ever start filling.
	SeedU float64
	// OffU clamps a server below this utilization to exactly 0 (hibernated).
	OffU float64
	// MassEps triggers activation when sum_i fa(u_i) falls below it.
	MassEps float64
}

// DefaultConfig returns the Fig. 13 setup: 100 six-core servers and the
// paper's assignment parameters (Ta=0.9, p=3); rates must be supplied.
func DefaultConfig() Config {
	fa, err := ecocloud.NewAssignProb(0.9, 3)
	if err != nil {
		panic(err) // constants; cannot fail
	}
	return Config{
		Ns:      100,
		Nc:      6,
		VMLoad:  0.02,
		Fa:      fa,
		Dt:      time.Minute,
		SeedU:   0.02,
		OffU:    0.005,
		MassEps: 0.5,
	}
}

// PerVMRate converts a per-VM departure rate (1/hour) into the per-core Mu
// this model expects, so that -Nc*Mu*u matches -mu_vm*u.
func PerVMRate(muVM float64, nc int) float64 { return muVM / float64(nc) }

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Ns <= 0:
		return fmt.Errorf("fluid: Ns = %d", c.Ns)
	case c.Nc <= 0:
		return fmt.Errorf("fluid: Nc = %d", c.Nc)
	case c.Lambda == nil || c.Mu == nil:
		return fmt.Errorf("fluid: Lambda and Mu must be set")
	case c.VMLoad <= 0 || c.VMLoad > 1:
		return fmt.Errorf("fluid: VMLoad = %v outside (0,1]", c.VMLoad)
	case c.Fa.Ta <= 0:
		return fmt.Errorf("fluid: assignment function not initialized")
	case c.Dt < 0:
		return fmt.Errorf("fluid: Dt = %v", c.Dt)
	case c.SeedU < 0 || c.SeedU > 1:
		return fmt.Errorf("fluid: SeedU = %v", c.SeedU)
	case c.OffU < 0 || c.OffU >= 1:
		return fmt.Errorf("fluid: OffU = %v", c.OffU)
	case c.MassEps < 0:
		return fmt.Errorf("fluid: MassEps = %v", c.MassEps)
	}
	return nil
}

// Result holds sampled trajectories: U[i][s] is server s's utilization at
// Times[i].
type Result struct {
	Times []time.Duration
	U     [][]float64
}

// ActiveAt counts servers with utilization above threshold at sample i.
func (r *Result) ActiveAt(i int, threshold float64) int {
	n := 0
	for _, u := range r.U[i] {
		if u > threshold {
			n++
		}
	}
	return n
}

// FinalActive counts servers above threshold at the last sample.
func (r *Result) FinalActive(threshold float64) int {
	if len(r.U) == 0 {
		return 0
	}
	return r.ActiveAt(len(r.U)-1, threshold)
}

// Run integrates the model from the initial utilizations over the horizon,
// sampling every sampleEvery. initial must have length Ns.
func Run(cfg Config, initial []float64, horizon, sampleEvery time.Duration) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(initial) != cfg.Ns {
		return nil, fmt.Errorf("fluid: %d initial conditions for %d servers", len(initial), cfg.Ns)
	}
	if horizon <= 0 || sampleEvery <= 0 {
		return nil, fmt.Errorf("fluid: horizon %v / sampleEvery %v", horizon, sampleEvery)
	}
	dt := cfg.Dt
	if dt == 0 {
		dt = time.Minute
	}
	u := make([]float64, cfg.Ns)
	copy(u, initial)

	res := &Result{}
	sample := func(t time.Duration) {
		row := make([]float64, len(u))
		copy(row, u)
		res.Times = append(res.Times, t)
		res.U = append(res.U, row)
	}
	sample(0)

	m := newModel(cfg)
	nextSample := sampleEvery
	for t := time.Duration(0); t < horizon; {
		step := dt
		if t+step > horizon {
			step = horizon - t
		}
		m.rk4(u, t, step)
		t += step
		m.discreteRules(u, t)
		for t >= nextSample && nextSample <= horizon {
			sample(nextSample)
			nextSample += sampleEvery
		}
	}
	return res, nil
}

// model carries scratch buffers so integration does not allocate per step.
type model struct {
	cfg Config
	f   []float64 // fa(u_i)
	k1  []float64
	k2  []float64
	k3  []float64
	k4  []float64
	tmp []float64
	// polynomial scratch for the exact A_s
	prod []float64
	quot []float64
}

func newModel(cfg Config) *model {
	n := cfg.Ns
	return &model{
		cfg:  cfg,
		f:    make([]float64, n),
		k1:   make([]float64, n),
		k2:   make([]float64, n),
		k3:   make([]float64, n),
		k4:   make([]float64, n),
		tmp:  make([]float64, n),
		prod: make([]float64, n+1),
		quot: make([]float64, n),
	}
}

// deriv writes du/dt into out for state u at time t. Time-varying rates are
// evaluated at t (hours).
func (m *model) deriv(out, u []float64, t time.Duration) {
	cfg := m.cfg
	lambda := cfg.Lambda(t)
	mu := cfg.Mu(t)
	for i, ui := range u {
		m.f[i] = cfg.Fa.Eval(ui)
	}
	decay := float64(cfg.Nc) * mu
	if cfg.Exact {
		m.derivExact(out, u, lambda, decay)
		return
	}
	sum := 0.0
	for _, fi := range m.f {
		sum += fi
	}
	for s, us := range u {
		arr := 0.0
		if sum > 0 {
			arr = lambda * cfg.VMLoad * m.f[s] / sum // Eq. (11)
		}
		out[s] = -decay*us + arr
	}
}

// derivExact evaluates Eq. (5)–(9). The full availability polynomial
// prod_i((1-f_i) + f_i x) is built once; each server's own factor is divided
// out to obtain its P_k^(s) coefficients.
func (m *model) derivExact(out, u []float64, lambda, decay float64) {
	n := m.cfg.Ns
	// Build the full product; prod[k] = P(exactly k of all servers accept).
	prod := m.prod[:n+1]
	for i := range prod {
		prod[i] = 0
	}
	prod[0] = 1
	deg := 0
	for _, fi := range m.f {
		a, b := 1-fi, fi
		deg++
		for k := deg; k >= 1; k-- {
			prod[k] = a*prod[k] + b*prod[k-1]
		}
		prod[0] *= a
	}
	// Denominator of Eq. (6): P(at least one accepts) = 1 - prod[0].
	denom := 1 - prod[0]
	for s := 0; s < n; s++ {
		us := u[s]
		fs := m.f[s]
		arr := 0.0
		if fs > 0 && denom > 1e-300 {
			q := m.deflate(prod, 1-fs, fs, n)
			// sum_k P_k^(s) / (k+1) over the other n-1 servers.
			sum := 0.0
			for k := 0; k < n; k++ {
				sum += q[k] / float64(k+1)
			}
			arr = lambda * m.cfg.VMLoad * fs * sum / denom
		}
		out[s] = -decay*us + arr
	}
}

// deflate divides the degree-n polynomial c by the linear factor (a + b*x),
// returning the degree n-1 quotient in a shared buffer. The recurrence runs
// from the constant term when |a| >= |b| and from the leading term
// otherwise, which keeps the division numerically stable for f near 0 or 1.
func (m *model) deflate(c []float64, a, b float64, n int) []float64 {
	q := m.quot[:n]
	if math.Abs(a) >= math.Abs(b) {
		// c_k = a*q_k + b*q_{k-1}  =>  q_k = (c_k - b*q_{k-1}) / a
		prev := 0.0
		for k := 0; k < n; k++ {
			qk := (c[k] - b*prev) / a
			q[k] = qk
			prev = qk
		}
	} else {
		// c_{k+1} = a*q_{k+1} + b*q_k  =>  q_k = (c_{k+1} - a*q_{k+1}) / b
		next := 0.0
		for k := n - 1; k >= 0; k-- {
			qk := (c[k+1] - a*next) / b
			q[k] = qk
			next = qk
		}
	}
	// Clamp tiny negative round-off: these are probabilities.
	for k := range q {
		if q[k] < 0 && q[k] > -1e-9 {
			q[k] = 0
		}
	}
	return q
}

// rk4 advances u in place by dt using classic Runge–Kutta.
func (m *model) rk4(u []float64, t, dt time.Duration) {
	h := dt.Hours()
	n := len(u)
	m.deriv(m.k1, u, t)
	for i := 0; i < n; i++ {
		m.tmp[i] = u[i] + 0.5*h*m.k1[i]
	}
	m.deriv(m.k2, m.tmp, t+dt/2)
	for i := 0; i < n; i++ {
		m.tmp[i] = u[i] + 0.5*h*m.k2[i]
	}
	m.deriv(m.k3, m.tmp, t+dt/2)
	for i := 0; i < n; i++ {
		m.tmp[i] = u[i] + h*m.k3[i]
	}
	m.deriv(m.k4, m.tmp, t+dt)
	for i := 0; i < n; i++ {
		u[i] += h / 6 * (m.k1[i] + 2*m.k2[i] + 2*m.k3[i] + m.k4[i])
		if u[i] < 0 {
			u[i] = 0
		}
	}
}

// discreteRules applies the paper's out-of-band events: servers decaying
// under OffU hibernate (clamp to 0), and when the fleet's acceptance mass is
// too small to absorb incoming load, one hibernated server is activated at
// SeedU (the fluid analogue of the manager's wake-up; the simulator's
// 30-minute grace period plays this role in §IV's comparison).
func (m *model) discreteRules(u []float64, t time.Duration) {
	cfg := m.cfg
	for i := range u {
		if u[i] > 0 && u[i] < cfg.OffU {
			u[i] = 0
		}
	}
	if cfg.Lambda(t) <= 0 {
		return
	}
	mass := 0.0
	for _, ui := range u {
		mass += cfg.Fa.Eval(ui)
	}
	if mass >= cfg.MassEps {
		return
	}
	for i := range u {
		if u[i] == 0 {
			u[i] = cfg.SeedU
			return
		}
	}
}

// Derivative evaluates du/dt once for the given state — the hook the
// approximation-error analysis uses to compare Eq. 11 against Eq. 6-9
// without integrating.
func Derivative(cfg Config, u []float64, t time.Duration) ([]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(u) != cfg.Ns {
		return nil, fmt.Errorf("fluid: state length %d for %d servers", len(u), cfg.Ns)
	}
	m := newModel(cfg)
	out := make([]float64, cfg.Ns)
	m.deriv(out, u, t)
	return out, nil
}
