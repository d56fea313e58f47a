// Package trace models virtual-machine CPU-demand workloads.
//
// The paper drives its simulator with CoMon logs of 6,000 PlanetLab VMs
// (March–April 2012, 5-minute samples). Those logs are not available, so this
// package substitutes a synthetic generator calibrated to the paper's own
// characterization of the data:
//
//   - Fig. 4: the distribution of per-VM *average* CPU utilization has its
//     mode well below 20% of host capacity, with a small heavy tail of
//     CPU-hungry VMs;
//   - Fig. 5: the distribution of *deviations* from the per-VM average is
//     concentrated near zero, with ~94% of samples within ±10 percentage
//     points of capacity;
//   - §III: the aggregate load follows a daily pattern, rising in the morning
//     and falling in the evening.
//
// Demands are carried in MHz; the "utilization" percentages of Figs. 4-5 are
// relative to a reference host capacity of 2,400 MHz — a typical PlanetLab
// node of the era. The paper measures VM utilization against the *PlanetLab*
// hosting machine, which is far smaller than the simulated 8-16 GHz servers;
// keeping the two capacities distinct is what lets ~40 such VMs share one
// simulated server (§III) while Fig. 4 still shows VMs averaging 5-20%% of
// their (PlanetLab) host.
package trace

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/par"
	"repro/internal/rng"
)

// VM is one virtual machine's demand trace. Demand[i] is the CPU demand in
// MHz during epoch i, where epoch i spans [Start+i*Epoch, Start+(i+1)*Epoch).
// The VM exists on [Start, End); DemandAt returns 0 outside that interval.
type VM struct {
	ID    int
	Start time.Duration
	End   time.Duration
	Epoch time.Duration
	// Demand holds per-epoch CPU demand in MHz. A single-element slice is a
	// constant-demand VM (used by the churn workloads of the fluid-model
	// experiments, which assume constant per-VM load).
	Demand []float64

	// RAMMB is the VM's (constant) memory footprint in MiB. Zero means
	// "not modeled": the CPU-only experiments of the paper's §III/§IV leave
	// it unset, the §V multi-resource extension populates it.
	RAMMB float64
}

// Alive reports whether the VM exists at virtual time t.
func (v *VM) Alive(t time.Duration) bool { return t >= v.Start && t < v.End }

// DemandAt returns the VM's CPU demand in MHz at virtual time t (a step
// function over epochs, clamped to the last sample) or 0 if the VM is not
// alive at t. A VM with a single sample — or a non-positive Epoch, which
// Validate only permits alongside a single sample — is constant-demand for
// its whole life.
func (v *VM) DemandAt(t time.Duration) float64 {
	if !v.Alive(t) || len(v.Demand) == 0 {
		return 0
	}
	if v.Epoch <= 0 || len(v.Demand) == 1 {
		return v.Demand[0]
	}
	i := int((t - v.Start) / v.Epoch)
	if i >= len(v.Demand) {
		i = len(v.Demand) - 1
	}
	return v.Demand[i]
}

// Validate reports whether the VM's fields are internally consistent. A
// non-positive Epoch is legal only for constant-demand VMs (at most one
// sample); a multi-sample trace needs a positive epoch to index into.
func (v *VM) Validate() error {
	switch {
	case v.End < v.Start:
		return fmt.Errorf("trace: VM %d: end %v before start %v", v.ID, v.End, v.Start)
	case len(v.Demand) > 1 && v.Epoch <= 0:
		return fmt.Errorf("trace: VM %d: %d samples with non-positive epoch %v", v.ID, len(v.Demand), v.Epoch)
	case v.RAMMB < 0:
		return fmt.Errorf("trace: VM %d: negative RAM %v", v.ID, v.RAMMB)
	}
	for i, d := range v.Demand {
		// One range test: false for negatives, NaN and ±Inf, true for −0.
		if !(d >= 0 && d <= math.MaxFloat64) {
			return fmt.Errorf("trace: VM %d: bad demand sample %d: %v", v.ID, i, d)
		}
	}
	return nil
}

// Sentinel window bounds returned by demandIndexAt for intervals that are
// unbounded on one side. They are extreme enough that no simulation clock
// reaches them, so callers can intersect windows without special cases.
const (
	minTime = time.Duration(math.MinInt64)
	maxTime = time.Duration(math.MaxInt64)
)

// demandIndexAt locates t in the VM's step function: it returns the index of
// the demand sample governing t (or -1 when the VM contributes 0, i.e. it is
// outside its lifetime or has no samples) and the maximal half-open window
// [from, until) containing t over which DemandAt is constant.
func (v *VM) demandIndexAt(t time.Duration) (idx int, from, until time.Duration) {
	if len(v.Demand) == 0 {
		return -1, minTime, maxTime
	}
	if t < v.Start {
		return -1, minTime, v.Start
	}
	if t >= v.End {
		return -1, v.End, maxTime
	}
	if v.Epoch <= 0 || len(v.Demand) == 1 {
		return 0, v.Start, v.End
	}
	i := int((t - v.Start) / v.Epoch)
	last := len(v.Demand) - 1
	if i >= last {
		// Clamped to the final sample, which rules until the VM departs.
		return last, v.Start + time.Duration(last)*v.Epoch, v.End
	}
	from = v.Start + time.Duration(i)*v.Epoch
	until = from + v.Epoch
	if until > v.End {
		until = v.End
	}
	return i, from, until
}

// SumDemandAt returns the summed demand of vms at t, added in slice order
// exactly as a loop over DemandAt would add it, and the window [from, until)
// containing t over which that sum holds: the intersection of the VMs'
// constant-demand windows. An empty slice sums to 0 over all time.
//
// In a trace-driven fleet the VMs usually share one sampling grid. Then all
// of their windows are the epoch containing t, and SumDemandAt is SumEpochs
// over one entry. Otherwise each VM's own window is located and
// intersected.
//
// It keeps no state, so concurrent callers may share the VMs.
func SumDemandAt(vms []*VM, t time.Duration) (sum float64, from, until time.Duration) {
	var one [1]float64
	if n, from, epoch := SumEpochs(vms, t, one[:]); n == 1 {
		return one[0], from, from + epoch
	}
	sum, from, until = 0, minTime, maxTime
	for _, v := range vms {
		i, f, u := v.demandIndexAt(t)
		d := 0.0
		if i >= 0 {
			d = v.Demand[i]
		}
		sum += d
		if f > from {
			from = f
		}
		if u < until {
			until = u
		}
	}
	return sum, from, until
}

// SumEpochs sums vms over a block of consecutive epochs of their shared
// sampling grid, starting with epoch k, the one that contains t. It adds
// each VM's samples k … k+n−1 into sums[0 … n−1], in slice order, so sums[j]
// has the bits SumDemandAt returns anywhere in epoch k+j, which spans
// [from+j·epoch, from+(j+1)·epoch). A first pass over the VMs checks the
// grid and adds sample k; a last one adds the rest from the cache lines the
// first brought in, since a VM's samples k … k+7 share one or two lines. So
// a block costs about the memory traffic of one epoch, and a one-entry call
// makes the first pass only.
//
// n is at most len(sums). It stops at the first epoch in which some VM ends
// or reaches its last sample, whose window runs to the VM's End. It is 0,
// and sums holds nothing of use, when the VMs share no grid at t: the slice
// is empty, some VM has another Start or Epoch, t is before Start, or some
// VM ends inside epoch k or is already on its last sample there. That is
// exactly when SumDemandAt locates each VM's own window instead.
func SumEpochs(vms []*VM, t time.Duration, sums []float64) (n int, from, epoch time.Duration) {
	if len(vms) == 0 || len(sums) == 0 {
		return 0, 0, 0
	}
	start := vms[0].Start
	if epoch = vms[0].Epoch; epoch <= 0 || t < start {
		return 0, 0, 0
	}
	k := int((t - start) / epoch)
	from = start + time.Duration(k)*epoch
	until := from + epoch
	// The first pass sums epoch k and checks that every VM covers it.
	sum := 0.0
	for _, v := range vms {
		if v.Start != start || v.Epoch != epoch || v.End < until || len(v.Demand) <= k+1 {
			return 0, 0, 0
		}
		sum += v.Demand[k]
	}
	sums[0] = sum
	if len(sums) == 1 {
		return 1, from, epoch
	}
	// The block runs to the first epoch in which some VM ends or reaches its
	// last sample. The last pass finds the rest of the block's samples on
	// the cache lines the first pass brought in.
	minEnd, minLen := maxTime, math.MaxInt
	for _, v := range vms {
		minEnd, minLen = min(minEnd, v.End), min(minLen, len(v.Demand))
	}
	n = min(len(sums), minLen-1-k)
	if minEnd < from+time.Duration(n)*epoch {
		n = int((minEnd - from) / epoch)
	}
	if n > 1 {
		rest := sums[1:n]
		clear(rest)
		for _, v := range vms {
			d := v.Demand[k+1 : k+n]
			for j := range rest {
				rest[j] += d[j]
			}
		}
	}
	return n, from, epoch
}

// Avg returns the mean demand over the VM's samples (MHz).
func (v *VM) Avg() float64 {
	if len(v.Demand) == 0 {
		return 0
	}
	sum := 0.0
	for _, d := range v.Demand {
		sum += d
	}
	return sum / float64(len(v.Demand))
}

// Set is a collection of VM traces plus the reference capacity that
// utilization percentages are measured against.
//
// A Set is read-only once built: simulation runs, the demand kernel and
// concurrent runs of one workload share its VMs without copying them. The
// constructors of this package (Synthesize, Generate, GenerateChurn,
// ReadPlanetLabDir and ConcatDays) validate every VM where they build it and mark the Set checked before returning it, so
// the mark is written before the Set is shared.
type Set struct {
	VMs []*VM
	// RefCapacityMHz is the host capacity that per-VM utilization
	// percentages (Figs. 4–5) are relative to.
	RefCapacityMHz float64

	// checked records that every VM was validated where the Set was built.
	checked bool
}

// Validate reports the first invalid VM in the set, if any. Simulation
// drivers call it up front so a malformed trace (e.g. a multi-sample VM with
// a non-positive epoch) fails loudly instead of mid-run. A Set from one of
// this package's constructors was checked where it was built and returns
// nil at once; a Set assembled by hand is scanned on every call.
func (s *Set) Validate() error {
	if s.checked {
		return nil
	}
	for _, vm := range s.VMs {
		if err := vm.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TotalDemandAt returns the summed demand (MHz) of all VMs alive at t, added
// in slice order (SumDemandAt's contract, so it is bit-identical to a loop
// over DemandAt).
func (s *Set) TotalDemandAt(t time.Duration) float64 {
	sum, _, _ := SumDemandAt(s.VMs, t)
	return sum
}

// AliveAt returns how many VMs exist at time t.
func (s *Set) AliveAt(t time.Duration) int {
	n := 0
	for _, v := range s.VMs {
		if v.Alive(t) {
			n++
		}
	}
	return n
}

// GenConfig parameterizes the synthetic PlanetLab-like generator. The zero
// value is not usable; start from DefaultGenConfig.
type GenConfig struct {
	NumVMs  int
	Horizon time.Duration // trace length; all VMs run for the whole horizon
	Epoch   time.Duration // sampling period (paper: 5 minutes)

	RefCapacityMHz float64 // capacity utilization is measured against

	// Per-VM average demand: a lognormal body (most VMs small) with a
	// bounded-Pareto heavy tail (a few CPU-hungry VMs), per Fig. 4.
	AvgMedianMHz  float64 // median of the lognormal body
	AvgSigma      float64 // sigma of the underlying normal
	HeavyFraction float64 // fraction of VMs drawn from the heavy tail
	HeavyAlpha    float64 // bounded-Pareto shape
	HeavyLoMHz    float64 // heavy-tail support
	HeavyHiMHz    float64

	// Daily pattern: demand is modulated by 1 + DailyAmplitude*sin(...),
	// peaking at PeakHour (fractional hours, local to the trace).
	DailyAmplitude float64
	PeakHour       float64

	// Short-term noise: per-VM AR(1) deviations. Sigma is expressed as a
	// fraction of the VM's average demand; Rho is the one-epoch
	// autocorrelation. Deviations are what Fig. 5 histograms.
	NoiseRho       float64
	NoiseSigmaFrac float64

	// Demand spikes: with probability SpikeProb per epoch a VM demands
	// SpikeFactor times its base level for that epoch. Spikes model the
	// sudden surges in the PlanetLab logs that produce the rare overload
	// events of Fig. 11 and the tails of Fig. 5.
	SpikeProb   float64
	SpikeFactor float64

	// Memory model for the §V multi-resource extension. When RAMMedianMB is
	// positive every VM gets a constant footprint: lognormal(RAMMedianMB,
	// RAMSigma), anti-correlated with CPU when RAMAntiCorr is set (CPU-bound
	// VMs tend to be memory-light and vice versa — the complementary mixes
	// §V argues multi-resource placement exploits). Zero disables the
	// dimension entirely.
	RAMMedianMB float64
	RAMSigma    float64
	RAMAntiCorr bool

	// MaxDemandMHz caps instantaneous demand (a VM cannot exceed the
	// reference host capacity).
	MaxDemandMHz float64
}

// DefaultGenConfig returns the calibration used for the paper-scale
// experiments: 6,000 VMs over 48 hours yielding an overall 400-server load
// that swings between roughly 0.25 and 0.50 through the day, with the Fig. 4
// and Fig. 5 distribution shapes.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		NumVMs:         6000,
		Horizon:        48 * time.Hour,
		Epoch:          5 * time.Minute,
		RefCapacityMHz: 2400,
		AvgMedianMHz:   150,
		AvgSigma:       0.80,
		HeavyFraction:  0.03,
		HeavyAlpha:     1.1,
		HeavyLoMHz:     480,
		HeavyHiMHz:     2400,
		DailyAmplitude: 0.25,
		PeakHour:       14.0,
		NoiseRho:       0.7,
		NoiseSigmaFrac: 0.15,
		SpikeProb:      0.002,
		SpikeFactor:    3.5,
		MaxDemandMHz:   2400,
	}
}

// Validate reports whether the configuration is internally consistent.
func (c GenConfig) Validate() error {
	switch {
	case c.NumVMs <= 0:
		return fmt.Errorf("trace: NumVMs = %d", c.NumVMs)
	case c.Horizon <= 0:
		return fmt.Errorf("trace: Horizon = %v", c.Horizon)
	case c.Epoch <= 0 || c.Epoch > c.Horizon:
		return fmt.Errorf("trace: Epoch = %v with Horizon %v", c.Epoch, c.Horizon)
	case c.RefCapacityMHz <= 0:
		return fmt.Errorf("trace: RefCapacityMHz = %v", c.RefCapacityMHz)
	case c.AvgMedianMHz <= 0 || c.AvgSigma < 0:
		return fmt.Errorf("trace: average-demand params %v/%v", c.AvgMedianMHz, c.AvgSigma)
	case c.HeavyFraction < 0 || c.HeavyFraction > 1:
		return fmt.Errorf("trace: HeavyFraction = %v", c.HeavyFraction)
	case c.HeavyFraction > 0 && (c.HeavyLoMHz <= 0 || c.HeavyHiMHz <= c.HeavyLoMHz || c.HeavyAlpha <= 0):
		return fmt.Errorf("trace: heavy-tail params lo=%v hi=%v alpha=%v", c.HeavyLoMHz, c.HeavyHiMHz, c.HeavyAlpha)
	case c.DailyAmplitude < 0 || c.DailyAmplitude >= 1:
		return fmt.Errorf("trace: DailyAmplitude = %v", c.DailyAmplitude)
	case c.NoiseRho < 0 || c.NoiseRho >= 1:
		return fmt.Errorf("trace: NoiseRho = %v", c.NoiseRho)
	case c.NoiseSigmaFrac < 0:
		return fmt.Errorf("trace: NoiseSigmaFrac = %v", c.NoiseSigmaFrac)
	case c.SpikeProb < 0 || c.SpikeProb > 1:
		return fmt.Errorf("trace: SpikeProb = %v", c.SpikeProb)
	case c.SpikeProb > 0 && c.SpikeFactor <= 1:
		return fmt.Errorf("trace: SpikeFactor = %v must exceed 1", c.SpikeFactor)
	case c.MaxDemandMHz <= 0:
		return fmt.Errorf("trace: MaxDemandMHz = %v", c.MaxDemandMHz)
	case c.RAMMedianMB < 0 || (c.RAMMedianMB > 0 && c.RAMSigma < 0):
		return fmt.Errorf("trace: RAM params %v/%v", c.RAMMedianMB, c.RAMSigma)
	}
	return nil
}

// dailyFactor returns the multiplicative daily modulation at time t,
// 1 + A·cos(2π(h-peak)/24). Generate's demand and GenerateChurn's arrival
// rate both call it, so "daily-modulated" means the same curve everywhere
// a rate or demand is modulated.
func dailyFactor(t time.Duration, amplitude, peakHour float64) float64 {
	hours := t.Hours()
	phase := 2 * math.Pi * (hours - peakHour) / 24
	return 1 + amplitude*math.Cos(phase)
}

// Synthesize builds a checked Set of n VMs of samples demand samples each
// over one shared slab. VM i gets the window slab[i*samples:(i+1)*samples],
// capped at its length so that an append on one VM reallocates instead of
// writing into the next. vm(i, demand) fills the window and returns VM i,
// which is validated on the same worker while its window is still in cache;
// the error is that of the lowest-index invalid VM. It runs for every i on a
// pool of GOMAXPROCS workers, so vm must draw only from VM i's own stream
// (rng.Source.SplitIndex) and write only its window and its VM; the set is
// then the same at every GOMAXPROCS. The caller sets RefCapacityMHz.
func Synthesize(n, samples int, vm func(i int, demand []float64) *VM) (*Set, error) {
	slab := make([]float64, n*samples)
	vms := make([]*VM, n)
	// The shards run in index order, so the first shard's first error is the
	// lowest-index one.
	errs := make([]error, len(par.Shards(n)))
	pool := par.New(runtime.GOMAXPROCS(0))
	defer pool.Close()
	pool.Range(n, func(sp par.Span) {
		for i := sp.Lo; i < sp.Hi; i++ {
			hi := (i + 1) * samples
			v := vm(i, slab[i*samples:hi:hi])
			if err := v.Validate(); err != nil && errs[sp.Index] == nil {
				errs[sp.Index] = err
			}
			vms[i] = v
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Set{VMs: vms, checked: true}, nil
}

// Generate synthesizes a trace set. Each VM's samples depend only on (seed,
// VM index), so Synthesize builds the VMs in parallel, and the daily
// modulation, which depends only on the epoch, is computed once per epoch.
func Generate(cfg GenConfig, seed uint64) (*Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	master := rng.New(seed)
	daily := make([]float64, int(cfg.Horizon/cfg.Epoch))
	for k := range daily {
		daily[k] = dailyFactor(time.Duration(k)*cfg.Epoch, cfg.DailyAmplitude, cfg.PeakHour)
	}
	mu := math.Log(cfg.AvgMedianMHz)
	set, err := Synthesize(cfg.NumVMs, len(daily), func(i int, demand []float64) *VM {
		src := master.SplitIndex("vm", i)
		avg := src.LogNormal(mu, cfg.AvgSigma)
		if cfg.HeavyFraction > 0 && src.Bernoulli(cfg.HeavyFraction) {
			avg = src.Pareto(cfg.HeavyAlpha, cfg.HeavyLoMHz, cfg.HeavyHiMHz)
		}
		if avg > cfg.MaxDemandMHz {
			avg = cfg.MaxDemandMHz
		}
		vm := &VM{
			ID:     i,
			Start:  0,
			End:    cfg.Horizon,
			Epoch:  cfg.Epoch,
			Demand: demand,
		}
		if cfg.RAMMedianMB > 0 {
			vm.RAMMB = src.LogNormal(math.Log(cfg.RAMMedianMB), cfg.RAMSigma)
			if cfg.RAMAntiCorr {
				// Scale memory inversely with the VM's CPU appetite around
				// the median: a CPU-heavy VM gets proportionally less RAM.
				ratio := cfg.AvgMedianMHz / avg
				if ratio > 4 {
					ratio = 4
				}
				if ratio < 0.25 {
					ratio = 0.25
				}
				vm.RAMMB *= ratio
			}
		}
		// AR(1) deviation state, stationary start.
		sigma := cfg.NoiseSigmaFrac * avg
		dev := 0.0
		if sigma > 0 && cfg.NoiseRho < 1 {
			dev = src.NormFloat64() * sigma / math.Sqrt(1-cfg.NoiseRho*cfg.NoiseRho)
		}
		for k, f := range daily {
			d := avg*f + dev
			if cfg.SpikeProb > 0 && src.Bernoulli(cfg.SpikeProb) {
				d *= cfg.SpikeFactor
			}
			if d < 0 {
				d = 0
			}
			if d > cfg.MaxDemandMHz {
				d = cfg.MaxDemandMHz
			}
			demand[k] = d
			dev = cfg.NoiseRho*dev + sigma*src.NormFloat64()
		}
		return vm
	})
	if err != nil {
		return nil, err
	}
	set.RefCapacityMHz = cfg.RefCapacityMHz
	return set, nil
}

// ChurnConfig parameterizes an arrival/departure workload for the
// assignment-only experiments (Figs. 12–13): VMs arrive in a Poisson process
// whose rate follows the daily pattern, live exponentially long, and carry a
// constant demand — matching the fluid model's assumptions.
type ChurnConfig struct {
	Horizon time.Duration

	// InitialVMs are present at t=0 (the paper pre-loads 1,500).
	InitialVMs int

	// ArrivalPerHour is the baseline VM arrival rate; it is modulated by the
	// daily pattern below. MeanLifetime sets the exponential departure rate.
	ArrivalPerHour float64
	MeanLifetime   time.Duration

	// Demand distribution for every VM (constant over its life).
	DemandMedianMHz float64
	DemandSigma     float64
	MaxDemandMHz    float64

	// Daily modulation of the arrival rate (same convention as GenConfig).
	DailyAmplitude float64
	PeakHour       float64

	RefCapacityMHz float64
}

// DefaultChurnConfig returns the Fig. 12 scenario: 100 six-core servers
// preloaded with 1,500 VMs at low per-server load; churn holds the population
// roughly stationary overnight (lambda/mu = 1000/h * 1.5h = 1500 VMs) and
// grows it through the morning. The 90-minute mean lifetime is calibrated to
// the paper's observation that the system reaches its consolidated steady
// state after about 6 hours: servers drained by the assignment procedure
// empty out only as their last VMs depart, so consolidation cannot be faster
// than a few VM lifetimes.
func DefaultChurnConfig() ChurnConfig {
	return ChurnConfig{
		Horizon:         18 * time.Hour,
		InitialVMs:      1500,
		ArrivalPerHour:  1000,
		MeanLifetime:    90 * time.Minute,
		DemandMedianMHz: 200,
		DemandSigma:     0.6,
		MaxDemandMHz:    2400,
		DailyAmplitude:  0.45,
		PeakHour:        14.0,
		RefCapacityMHz:  2400,
	}
}

// Validate reports whether the churn configuration is usable.
func (c ChurnConfig) Validate() error {
	switch {
	case c.Horizon <= 0:
		return fmt.Errorf("trace: churn Horizon = %v", c.Horizon)
	case c.InitialVMs < 0:
		return fmt.Errorf("trace: InitialVMs = %d", c.InitialVMs)
	case c.ArrivalPerHour < 0:
		return fmt.Errorf("trace: ArrivalPerHour = %v", c.ArrivalPerHour)
	case c.MeanLifetime <= 0:
		return fmt.Errorf("trace: MeanLifetime = %v", c.MeanLifetime)
	case c.DemandMedianMHz <= 0 || c.DemandSigma < 0:
		return fmt.Errorf("trace: demand params %v/%v", c.DemandMedianMHz, c.DemandSigma)
	case c.MaxDemandMHz <= 0:
		return fmt.Errorf("trace: MaxDemandMHz = %v", c.MaxDemandMHz)
	case c.DailyAmplitude < 0 || c.DailyAmplitude >= 1:
		return fmt.Errorf("trace: DailyAmplitude = %v", c.DailyAmplitude)
	case c.RefCapacityMHz <= 0:
		return fmt.Errorf("trace: RefCapacityMHz = %v", c.RefCapacityMHz)
	}
	return nil
}

// GenerateChurn synthesizes an arrival/departure workload. Initial VMs start
// at t=0; arrivals follow a non-homogeneous Poisson process (thinning against
// the daily-modulated rate); lifetimes are exponential. Every VM has a single
// constant demand sample.
func GenerateChurn(cfg ChurnConfig, seed uint64) (*Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	master := rng.New(seed)
	demandSrc := master.Split("demand")
	lifeSrc := master.Split("lifetime")
	arrSrc := master.Split("arrivals")
	mu := math.Log(cfg.DemandMedianMHz)

	set := &Set{RefCapacityMHz: cfg.RefCapacityMHz}
	id := 0
	var bad error // the first invalid VM's
	newVM := func(start time.Duration) *VM {
		d := demandSrc.LogNormal(mu, cfg.DemandSigma)
		if d > cfg.MaxDemandMHz {
			d = cfg.MaxDemandMHz
		}
		life := time.Duration(lifeSrc.ExpFloat64() * float64(cfg.MeanLifetime))
		if life <= 0 {
			// An exponential draw small enough to truncate to zero duration
			// would produce a Start == End VM that is never alive (lifetimes
			// are half-open). Floor to the smallest representable lifetime so
			// every generated VM exists for at least one instant.
			life = 1
		}
		// VMs whose life extends past the horizon keep their natural End and
		// simply outlive the run: the cluster driver never schedules
		// departures at or after the horizon. Clamping End to exactly Horizon
		// zeroed every such VM's demand at the final control tick (Alive is
		// half-open), which made all servers dip under Tl at t == Horizon at
		// once and run doomed all-pairs invitation rounds — the same
		// pathology parScaleWorkload had to fix by outliving the horizon.
		vm := &VM{ID: id, Start: start, End: start + life, Epoch: cfg.Horizon, Demand: []float64{d}}
		if err := vm.Validate(); err != nil && bad == nil {
			bad = err
		}
		id++
		return vm
	}

	for i := 0; i < cfg.InitialVMs; i++ {
		set.VMs = append(set.VMs, newVM(0))
	}

	if cfg.ArrivalPerHour > 0 {
		// Thinning: the modulated rate never exceeds base*(1+amplitude).
		maxRate := cfg.ArrivalPerHour * (1 + cfg.DailyAmplitude)
		t := time.Duration(0)
		for {
			gap := arrSrc.ExpFloat64() / maxRate // hours
			t += time.Duration(gap * float64(time.Hour))
			if t >= cfg.Horizon {
				break
			}
			rate := cfg.ArrivalPerHour * dailyFactor(t, cfg.DailyAmplitude, cfg.PeakHour)
			if arrSrc.Float64() < rate/maxRate {
				set.VMs = append(set.VMs, newVM(t))
			}
		}
	}
	if bad != nil {
		return nil, bad
	}
	set.checked = true
	return set, nil
}
