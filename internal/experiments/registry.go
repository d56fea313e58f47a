package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/ecocloud"
)

// RunRequest parameterizes any registered experiment uniformly. Zero values
// mean "use the experiment's paper defaults":
//
//   - Config: non-zero fields override the experiment's default RunConfig
//     (Config.Obs is always threaded through, even when nil);
//   - Eco: replaces the ecoCloud parameters of daily, assignonly, sensitivity,
//     multiresource, comparison, knee and replication (nil keeps the defaults);
//   - Scale: shrinks the fleet and workload proportionally before Config
//     overrides apply (0 and 1 both mean paper scale);
//   - Exact: selects the exact combinatorial A_s (Eqs. 6–9) where a fluid
//     model is involved.
type RunRequest struct {
	Config RunConfig
	Eco    *ecocloud.Config
	Scale  float64
	Exact  bool
}

// scale returns the effective scale factor, treating 0 as 1.
func (r RunRequest) scale() float64 {
	if r.Scale <= 0 || r.Scale > 1 {
		return 1
	}
	return r.Scale
}

// Apply merges the request into an experiment's default RunConfig: Scale
// first (so explicit overrides win), then the non-zero Config fields.
func (r RunRequest) Apply(def RunConfig) RunConfig {
	if s := r.scale(); s < 1 {
		def.Servers = scaleInt(def.Servers, s)
		def.NumVMs = scaleInt(def.NumVMs, s)
	}
	return r.Config.overlay(def)
}

// eco copies the requested ecoCloud parameters into dst, the field an
// experiment runs its policy from (Eco or Base); a nil Eco keeps dst.
func (r RunRequest) eco(dst *ecocloud.Config) {
	if r.Eco != nil {
		*dst = *r.Eco
	}
}

// RunResult is what every registered experiment returns: the figures it
// produced, CSV-ready and in paper order.
type RunResult struct {
	Name    string
	Figures []*Figure
}

// Experiment is a named entry point with the uniform Run signature.
type Experiment struct {
	Name        string
	Description string
	Run         func(RunRequest) (*RunResult, error)
}

// registry holds the built-in experiments in registration order (the paper's
// presentation order, which ecobench preserves in its output).
var registry []Experiment

// Register adds an experiment. It panics on a duplicate name: registration
// happens at init time and a collision is a programming error.
func Register(e Experiment) {
	if e.Name == "" || e.Run == nil {
		panic("experiments: Register needs a name and a Run function")
	}
	for _, got := range registry {
		if got.Name == e.Name {
			panic(fmt.Sprintf("experiments: duplicate registration of %q", e.Name))
		}
	}
	registry = append(registry, e)
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// All returns the experiments in registration (paper) order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Names returns the registered names sorted alphabetically (for -help text
// and error messages; use All for run order).
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	sort.Strings(names)
	return names
}

// Run looks up and runs one experiment by name.
func Run(name string, req RunRequest) (*RunResult, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return e.Run(req)
}

// add registers a built-in experiment from a function returning its figures.
func add(name, description string, run func(RunRequest) ([]*Figure, error)) {
	Register(Experiment{Name: name, Description: description, Run: func(req RunRequest) (*RunResult, error) {
		figs, err := run(req)
		if err != nil {
			return nil, err
		}
		return &RunResult{Name: name, Figures: figs}, nil
	}})
}

func init() {
	add("fig2", "Fig. 2: assignment probability function f_a for p=2,3,5 (analytic)", func(RunRequest) ([]*Figure, error) {
		f, err := Fig2()
		return []*Figure{f}, err
	})
	add("fig3", "Fig. 3: migration probability functions f_l, f_h (analytic)", func(RunRequest) ([]*Figure, error) {
		f, err := Fig3()
		return []*Figure{f}, err
	})
	add("traces", "Figs. 4–5: workload characterization (utilization and deviation distributions)", func(req RunRequest) ([]*Figure, error) {
		opts := DefaultTraceOptions()
		opts.RunConfig = req.Apply(opts.RunConfig)
		f4, err := Fig4(opts)
		if err != nil {
			return nil, err
		}
		f5, err := Fig5(opts)
		return []*Figure{f4, f5}, err
	})
	add("daily", "Figs. 6–11: the two-day trace-driven consolidation run", func(req RunRequest) ([]*Figure, error) {
		res, err := Daily(DailyOptionsFor(req))
		if err != nil {
			return nil, err
		}
		return res.Figures(), nil
	})
	add("assignonly", "Figs. 12–13: assignment-only simulation vs the fluid model", func(req RunRequest) ([]*Figure, error) {
		opts := DefaultAssignOnlyOptions()
		opts.RunConfig = req.Apply(opts.RunConfig)
		opts.Churn.ArrivalPerHour *= req.scale()
		opts.Exact = req.Exact
		req.eco(&opts.Eco)
		res, err := AssignOnly(opts)
		if err != nil {
			return nil, err
		}
		return []*Figure{res.Fig12(), res.Fig13()}, nil
	})
	add("fluiderror", "§IV approximation quality: Eq. 11 vs the exact Eqs. 6–9", func(req RunRequest) ([]*Figure, error) {
		opts := DefaultFluidErrorOptions()
		opts.RunConfig = req.Apply(opts.RunConfig)
		f, err := FluidError(opts)
		return []*Figure{f}, err
	})
	add("sensitivity", "§III sensitivity of ecoCloud to Th, Tl, alpha/beta", func(req RunRequest) ([]*Figure, error) {
		opts := DefaultSensitivityOptions()
		opts.RunConfig = req.Apply(opts.RunConfig)
		req.eco(&opts.Base)
		points, err := Sensitivity(opts)
		if err != nil {
			return nil, err
		}
		return []*Figure{SensitivityFigure(points)}, nil
	})
	add("multiresource", "§V extension: CPU-only vs multi-resource strategies on a RAM-tight mix", func(req RunRequest) ([]*Figure, error) {
		opts := DefaultMultiResourceOptions()
		opts.RunConfig = req.Apply(opts.RunConfig)
		req.eco(&opts.Eco)
		res, err := MultiResource(opts)
		if err != nil {
			return nil, err
		}
		return []*Figure{res.Figure()}, nil
	})
	add("protocolday", "one day of the complete distributed system on the wire", func(req RunRequest) ([]*Figure, error) {
		opts := DefaultProtocolDayOptions()
		opts.RunConfig = req.Apply(opts.RunConfig)
		opts.Churn.ArrivalPerHour *= req.scale()
		f, err := ProtocolDay(opts)
		return []*Figure{f}, err
	})
	add("scalability", "footnote-1 study: protocol cost per placement vs fleet size", func(req RunRequest) ([]*Figure, error) {
		opts := DefaultScalabilityOptions()
		if req.scale() < 1 {
			opts.FleetSizes = []int{50, 100, 200}
			opts.Placements = 100
		}
		opts.RunConfig = req.Config.overlay(opts.RunConfig)
		points, err := Scalability(opts)
		if err != nil {
			return nil, err
		}
		return []*Figure{ScalabilityFigure(points)}, nil
	})
	add("parscale", "deterministic parallel control round: 10k-100k-server sweep, every worker count verified bit-identical", func(req RunRequest) ([]*Figure, error) {
		opts := DefaultParScaleOptions()
		if req.scale() < 1 {
			// Quick runs: small fleets, short horizon, but the full
			// worker-count ladder — the parity check is the point.
			opts.FleetSizes = []int{300, 600}
			opts.WorkerCounts = []int{0, 1, 2, 8}
			opts.Horizon = time.Hour
		}
		opts.RunConfig = req.Config.overlay(opts.RunConfig)
		points, err := ParScale(opts)
		if err != nil {
			return nil, err
		}
		return []*Figure{ParScaleFigure(points)}, nil
	})
	add("faults", "graceful degradation: MTBF/MTTR sweep with wake failures and a lossy fabric", func(req RunRequest) ([]*Figure, error) {
		opts := DefaultFaultsOptions()
		opts.RunConfig = req.Apply(opts.RunConfig)
		opts.Churn.ArrivalPerHour *= req.scale()
		if req.scale() < 1 {
			// Quick runs: one hostile and one mild cell instead of the grid.
			opts.MTBFs = []time.Duration{2 * time.Hour}
			opts.MTTRs = []time.Duration{10 * time.Minute}
		}
		f, err := Faults(opts)
		return []*Figure{f}, err
	})
	add("comparison", "ecoCloud vs centralized baselines (BFD, FFD, all-on) on the identical workload", func(req RunRequest) ([]*Figure, error) {
		opts := DefaultComparisonOptions()
		opts.RunConfig = req.Apply(opts.RunConfig)
		req.eco(&opts.Eco)
		res, err := Comparison(opts)
		if err != nil {
			return nil, err
		}
		return []*Figure{res.Figure()}, nil
	})
	add("knee", "max sustainable churn rate vs fleet size: stepped load ramp with an overload stop-rule (ecoCloud vs BFD)", func(req RunRequest) ([]*Figure, error) {
		opts := DefaultKneeOptions()
		if req.scale() < 1 {
			// Quick runs: one small fleet, short coarse slots, a tight
			// tolerance — enough to exercise the ramp end to end and
			// still cross the knee within the ladder. The slot length is
			// set before the overlay, so a -horizon override wins.
			opts.FleetSizes = []int{20}
			opts.Horizon = time.Hour
			opts.MaxSlots = 6
			opts.StartPerServerHour = 16
			opts.StepPerServerHour = 8
			opts.Tolerance = 1
		}
		opts.RunConfig = req.Config.overlay(opts.RunConfig)
		req.eco(&opts.Eco)
		res, err := Knee(opts)
		if err != nil {
			return nil, err
		}
		return []*Figure{res.Figure()}, nil
	})
	add("replication", "seed spread: the daily run's headline metrics across five consecutive seeds (mean, sd, min, max)", func(req RunRequest) ([]*Figure, error) {
		opts := DailyOptionsFor(req)
		seeds := make([]uint64, replicationSeeds)
		for i := range seeds {
			seeds[i] = opts.Seed + uint64(i)
		}
		reps, err := ReplicateDaily(opts, seeds)
		if err != nil {
			return nil, err
		}
		return []*Figure{ReplicationFigure(reps)}, nil
	})
}
