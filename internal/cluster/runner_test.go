package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/obs"
	"repro/internal/trace"
)

// stuffer is a degenerate policy that puts every VM on server 0. It gives the
// driver tests full control over utilization and overload.
type stuffer struct{ controls int }

func (s *stuffer) Name() string { return "stuffer" }

func (s *stuffer) OnArrival(env cluster.Env, vm *trace.VM) {
	s0 := env.DC.Servers[0]
	if s0.State() != dc.Active {
		if err := env.DC.Activate(s0, env.Now); err != nil {
			panic(err)
		}
	}
	if err := env.DC.Place(vm, s0); err != nil {
		panic(err)
	}
}

func (s *stuffer) OnControl(env cluster.Env) { s.controls++ }

func constVM(id int, mhz float64, start, end time.Duration) *trace.VM {
	return &trace.VM{ID: id, Start: start, End: end, Epoch: 1000 * time.Hour, Demand: []float64{mhz}}
}

func baseConfig(ws *trace.Set) cluster.RunConfig {
	return cluster.RunConfig{
		Specs:           dc.UniformFleet(4, 6, 2000),
		Workload:        ws,
		Horizon:         2 * time.Hour,
		ControlInterval: 5 * time.Minute,
		SampleInterval:  30 * time.Minute,
		PowerModel:      dc.DefaultPowerModel(),
	}
}

func TestRunConfigValidation(t *testing.T) {
	ws := &trace.Set{RefCapacityMHz: 8000, VMs: []*trace.VM{constVM(0, 100, 0, time.Hour)}}
	bad := []func(*cluster.RunConfig){
		func(c *cluster.RunConfig) { c.Specs = nil },
		func(c *cluster.RunConfig) { c.Workload = nil },
		func(c *cluster.RunConfig) { c.Workload = &trace.Set{} },
		func(c *cluster.RunConfig) { c.Horizon = 0 },
		func(c *cluster.RunConfig) { c.ControlInterval = 0 },
		func(c *cluster.RunConfig) { c.SampleInterval = 0 },
		func(c *cluster.RunConfig) { c.MeasureFrom = -time.Minute },
		func(c *cluster.RunConfig) { c.MeasureFrom = c.Horizon },
		func(c *cluster.RunConfig) { c.PowerModel = dc.PowerModel{} },
	}
	for i, mutate := range bad {
		cfg := baseConfig(ws)
		mutate(&cfg)
		if _, err := cluster.Run(cfg, &stuffer{}); err == nil {
			t.Errorf("bad run config %d accepted", i)
		}
	}
}

func TestRunSeriesShape(t *testing.T) {
	ws := &trace.Set{RefCapacityMHz: 8000, VMs: []*trace.VM{
		constVM(0, 2000, 0, 3*time.Hour),
		constVM(1, 3000, 30*time.Minute, 90*time.Minute),
	}}
	cfg := baseConfig(ws)
	cfg.RecordServerUtil = true
	res, err := cluster.Run(cfg, &stuffer{})
	if err != nil {
		t.Fatal(err)
	}
	// Samples at 0, 30, 60, 90, 120 minutes.
	if res.ActiveServers.Len() != 5 {
		t.Fatalf("active-servers samples = %d, want 5", res.ActiveServers.Len())
	}
	for _, s := range []int{res.PowerW.Len(), res.OverallLoad.Len(), res.OverDemandPct.Len(),
		res.Activations.Len(), res.Hibernations.Len()} {
		if s != 5 {
			t.Fatalf("series length %d, want 5", s)
		}
	}
	if len(res.ServerUtil) != 5 || len(res.ServerUtil[0]) != 4 {
		t.Fatalf("server-util matrix %dx%d, want 5x4", len(res.ServerUtil), len(res.ServerUtil[0]))
	}
	if res.EnergyKWh <= 0 {
		t.Fatal("energy not accumulated")
	}
	if res.Policy != "stuffer" {
		t.Fatalf("policy name = %q", res.Policy)
	}
}

func TestRunArrivalAndDeparture(t *testing.T) {
	// VM 1 departs at 90m; utilization on server 0 must drop afterwards.
	ws := &trace.Set{RefCapacityMHz: 8000, VMs: []*trace.VM{
		constVM(0, 2000, 0, 3*time.Hour),
		constVM(1, 3000, 30*time.Minute, 90*time.Minute),
	}}
	cfg := baseConfig(ws)
	cfg.RecordServerUtil = true
	res, err := cluster.Run(cfg, &stuffer{})
	if err != nil {
		t.Fatal(err)
	}
	// At 60m both VMs run: u = 5000/12000. At 120m only VM 0: u = 2000/12000.
	if got := res.ServerUtil[2][0]; got < 0.41 || got > 0.42 {
		t.Fatalf("util at 60m = %v, want ~0.4167", got)
	}
	if got := res.ServerUtil[4][0]; got < 0.16 || got > 0.17 {
		t.Fatalf("util at 120m = %v, want ~0.1667 after departure", got)
	}
}

func TestRunOverloadAccounting(t *testing.T) {
	// 13 GHz of demand on a 12 GHz server: permanently overloaded.
	ws := &trace.Set{RefCapacityMHz: 8000, VMs: []*trace.VM{
		constVM(0, 7000, 0, 3*time.Hour),
		constVM(1, 6000, 0, 3*time.Hour),
	}}
	cfg := baseConfig(ws)
	res, err := cluster.Run(cfg, &stuffer{})
	if err != nil {
		t.Fatal(err)
	}
	if res.VMOverloadTimeFrac < 0.99 {
		t.Fatalf("overload fraction = %v, want ~1", res.VMOverloadTimeFrac)
	}
	if res.Episodes.Episodes() != 1 {
		t.Fatalf("episodes = %d, want 1 continuous episode", res.Episodes.Episodes())
	}
	// Granted fraction = capacity/demand = 12/13.
	if got := res.GrantedFracInOverload; got < 0.92 || got > 0.93 {
		t.Fatalf("granted fraction = %v, want ~0.923", got)
	}
	if res.OverDemandPct.Max() != 100 {
		t.Fatalf("over-demand pct max = %v, want 100", res.OverDemandPct.Max())
	}
}

// TestMeasureFromGatesOnlyWindowedFields: the warm-up gate is accounting
// only. A day measured from half its horizon differs from one measured from
// t=0 in the four windowed aggregates and nowhere else, so copying those
// across makes the two results equal. The day overloads at its afternoon
// peak, so the overload fractions move as well as the mean active count.
func TestMeasureFromGatesOnlyWindowedFields(t *testing.T) {
	churn := trace.DefaultChurnConfig()
	churn.Horizon = 24 * time.Hour
	churn.InitialVMs = 375
	churn.ArrivalPerHour = 250
	ws, err := trace.GenerateChurn(churn, 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func(from time.Duration) *cluster.Result {
		pol, err := ecocloud.New(ecocloud.DefaultConfig(), 5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cluster.Run(cluster.RunConfig{
			Specs:           dc.UniformFleet(10, 6, 2000),
			Workload:        ws,
			Horizon:         churn.Horizon,
			ControlInterval: 5 * time.Minute,
			SampleInterval:  30 * time.Minute,
			MeasureFrom:     from,
			PowerModel:      dc.DefaultPowerModel(),
		}, pol)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	whole, gated := run(0), run(churn.Horizon/2)
	if whole.MeanActiveServers == gated.MeanActiveServers ||
		whole.VMOverloadTimeFrac == gated.VMOverloadTimeFrac ||
		whole.GrantedFracInOverload == gated.GrantedFracInOverload {
		t.Fatalf("the gate moved too little to test: mean active %v/%v, VM overload %v/%v, granted %v/%v",
			whole.MeanActiveServers, gated.MeanActiveServers, whole.VMOverloadTimeFrac, gated.VMOverloadTimeFrac,
			whole.GrantedFracInOverload, gated.GrantedFracInOverload)
	}
	gated.MeanActiveServers = whole.MeanActiveServers
	gated.VMOverloadTimeFrac = whole.VMOverloadTimeFrac
	gated.RAMOverloadTimeFrac = whole.RAMOverloadTimeFrac
	gated.GrantedFracInOverload = whole.GrantedFracInOverload
	if err := cluster.SameResult(whole, gated); err != nil {
		t.Fatalf("the warm-up gate moved more than the windowed aggregates: %v", err)
	}
}

func TestRunNoOverloadZeroMetrics(t *testing.T) {
	ws := &trace.Set{RefCapacityMHz: 8000, VMs: []*trace.VM{
		constVM(0, 1000, 0, 3*time.Hour),
	}}
	res, err := cluster.Run(baseConfig(ws), &stuffer{})
	if err != nil {
		t.Fatal(err)
	}
	if res.VMOverloadTimeFrac != 0 {
		t.Fatalf("overload fraction = %v, want 0", res.VMOverloadTimeFrac)
	}
	if res.GrantedFracInOverload != 1 {
		t.Fatalf("granted fraction = %v, want 1 (no overload)", res.GrantedFracInOverload)
	}
	if res.Episodes.Episodes() != 0 {
		t.Fatal("phantom overload episodes")
	}
}

func TestRunControlCadence(t *testing.T) {
	ws := &trace.Set{RefCapacityMHz: 8000, VMs: []*trace.VM{
		constVM(0, 1000, 0, 3*time.Hour),
	}}
	p := &stuffer{}
	if _, err := cluster.Run(baseConfig(ws), p); err != nil {
		t.Fatal(err)
	}
	// Ticks at 0, 5, ..., 120 minutes inclusive.
	if p.controls != 25 {
		t.Fatalf("control ticks = %d, want 25", p.controls)
	}
}

func TestRunSpreadRoundRobin(t *testing.T) {
	vms := make([]*trace.VM, 8)
	for i := range vms {
		vms[i] = constVM(i, 1000, 0, 3*time.Hour)
	}
	ws := &trace.Set{RefCapacityMHz: 8000, VMs: vms}
	cfg := baseConfig(ws)
	cfg.Initial = cluster.SpreadRoundRobin
	cfg.RecordServerUtil = true
	res, err := cluster.Run(cfg, &stuffer{})
	if err != nil {
		t.Fatal(err)
	}
	// All 4 servers activated and each got 2 VMs at t=0.
	if res.ActiveServers.V[0] != 4 {
		t.Fatalf("active at t=0 = %v, want 4", res.ActiveServers.V[0])
	}
	for s := 0; s < 4; s++ {
		if got := res.ServerUtil[0][s]; got < 0.16 || got > 0.17 {
			t.Fatalf("server %d util = %v, want ~0.1667", s, got)
		}
	}
	// Setup activations are not counted as policy switches.
	if res.TotalActivations != 0 {
		t.Fatalf("setup activations leaked into the count: %d", res.TotalActivations)
	}
}

// Energy must integrate the power draw over exactly [0, Horizon). One
// 12 GHz server at a constant 6 GHz demand (u = 0.5) under a 1 kW peak /
// 0.5 idle-fraction model draws 750 W, so any 1-hour horizon must read
// 0.75 kWh — however the control cadence divides it.
func TestRunEnergyIntegratesExactHorizon(t *testing.T) {
	cases := []struct {
		name    string
		control time.Duration
	}{
		{"horizon-multiple-of-interval", 15 * time.Minute}, // ticks 0,15,30,45 (+60 contributes 0)
		{"horizon-not-multiple", 25 * time.Minute},         // ticks 0,25,50: slices 25+25+10
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ws := &trace.Set{RefCapacityMHz: 8000, VMs: []*trace.VM{constVM(0, 6000, 0, 2*time.Hour)}}
			res, err := cluster.Run(cluster.RunConfig{
				Specs:           dc.UniformFleet(1, 6, 2000),
				Workload:        ws,
				Horizon:         time.Hour,
				ControlInterval: c.control,
				SampleInterval:  30 * time.Minute,
				PowerModel:      dc.PowerModel{PeakW: 1000, IdleFraction: 0.5},
			}, &stuffer{})
			if err != nil {
				t.Fatal(err)
			}
			const want = 0.75 // 750 W for one hour
			if diff := res.EnergyKWh - want; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("EnergyKWh = %v, want %v (off by %v)", res.EnergyKWh, want, diff)
			}
		})
	}
}

// SpreadRoundRobin setup (activating the whole fleet and pre-placing the
// t=0 VMs) is scenario construction, not policy behaviour: the telemetry
// counters and the JSONL journal must not see it.
func TestRunSpreadRoundRobinTelemetryClean(t *testing.T) {
	vms := make([]*trace.VM, 8)
	for i := range vms {
		vms[i] = constVM(i, 1000, 0, 3*time.Hour)
	}
	ws := &trace.Set{RefCapacityMHz: 8000, VMs: vms}
	var jbuf bytes.Buffer
	cfg := baseConfig(ws)
	cfg.Initial = cluster.SpreadRoundRobin
	rec := obs.NewRecorder(nil, obs.NewJournal(&jbuf))
	if _, err := cluster.Run(cfg, &stuffer{}, cluster.WithObs(rec)); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	for _, name := range []string{"cluster.assignments", "cluster.wakeups"} {
		if n := snap.Counters[name]; n != 0 {
			t.Errorf("%s = %d after setup-only run, want 0", name, n)
		}
	}
	// The stuffer policy performs no mutations, so the journal stays empty.
	if jbuf.Len() != 0 {
		t.Errorf("journal has %d bytes of setup events", jbuf.Len())
	}
}

// A malformed workload (a multi-sample VM with a zero epoch, a NaN sample)
// must be rejected up front instead of dividing by zero or placing a NaN
// mid-run, and on every call, not only the first: nothing marks a
// hand-built Set checked, so each run that is handed it scans it.
func TestRunRejectsInvalidWorkload(t *testing.T) {
	for _, bad := range []*trace.VM{
		{ID: 0, End: time.Hour, Epoch: 0, Demand: []float64{100, 200}},
		{ID: 3, End: time.Hour, Epoch: time.Minute, Demand: []float64{100, math.NaN()}},
	} {
		ws := &trace.Set{RefCapacityMHz: 8000, VMs: []*trace.VM{bad}}
		want := fmt.Sprintf("VM %d", bad.ID)
		for call := 1; call <= 3; call++ {
			if _, err := cluster.Run(baseConfig(ws), &stuffer{}); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s, call %d: error %v", want, call, err)
			}
		}
	}
}

// The demand kernel must be invisible in the results: a naive-path run is
// bit-identical to the cached run, and cache stats appear only on the
// cached one.
func TestRunDemandCacheDifferential(t *testing.T) {
	gcfg := trace.DefaultGenConfig()
	gcfg.NumVMs = 80
	gcfg.Horizon = 4 * time.Hour
	ws, err := trace.Generate(gcfg, 23)
	if err != nil {
		t.Fatal(err)
	}
	run := func(disable bool) *cluster.Result {
		pol, err := ecocloud.New(ecocloud.DefaultConfig(), 11)
		if err != nil {
			t.Fatal(err)
		}
		cfg := cluster.RunConfig{
			Specs:              dc.StandardFleet(10),
			Workload:           ws,
			Horizon:            4 * time.Hour,
			ControlInterval:    5 * time.Minute,
			SampleInterval:     30 * time.Minute,
			PowerModel:         dc.DefaultPowerModel(),
			DisableDemandCache: disable,
		}
		res, err := cluster.Run(cfg, pol)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cached, naive := run(false), run(true)
	if err := cluster.SameResult(cached, naive); err != nil {
		t.Fatalf("cached and naive runs diverged: %v", err)
	}
	if cached.DemandCache.Hits == 0 {
		t.Fatal("cached run recorded no cache hits")
	}
	if naive.DemandCache.Hits != 0 || naive.DemandCache.Misses != 0 {
		t.Fatalf("naive run recorded cache traffic: %+v", naive.DemandCache)
	}
}

func TestRunEcoCloudEndToEnd(t *testing.T) {
	// A realistic mini-scenario: 200 VMs with daily pattern on 20 servers,
	// full ecoCloud. Checks the headline behaviours end to end.
	gcfg := trace.DefaultGenConfig()
	gcfg.NumVMs = 200
	gcfg.Horizon = 12 * time.Hour
	ws, err := trace.Generate(gcfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	ecfg := ecocloud.DefaultConfig()
	pol, err := ecocloud.New(ecfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.RunConfig{
		Specs:           dc.StandardFleet(20),
		Workload:        ws,
		Horizon:         12 * time.Hour,
		ControlInterval: 5 * time.Minute,
		SampleInterval:  30 * time.Minute,
		PowerModel:      dc.DefaultPowerModel(),
	}
	res, err := cluster.Run(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanActiveServers <= 0 || res.MeanActiveServers >= 20 {
		t.Fatalf("mean active servers = %v", res.MeanActiveServers)
	}
	// Consolidation: far fewer servers than the fleet carry the load. The
	// 200-VM set demands roughly 15-25% of the 20-server fleet.
	if res.MeanActiveServers > 12 {
		t.Fatalf("weak consolidation: %v servers active on average", res.MeanActiveServers)
	}
	// QoS: overload time fraction stays tiny (paper: <= 0.0002).
	if res.VMOverloadTimeFrac > 0.005 {
		t.Fatalf("overload fraction = %v, want < 0.005", res.VMOverloadTimeFrac)
	}
	if res.Saturations != 0 {
		t.Fatalf("saturations = %d in an underloaded DC", res.Saturations)
	}
	// Energy must beat the all-on fleet and lose to the impossible zero.
	allOnKWh := 20 * 0.65 * 250 * 12 / 1000 // every server idle for 12h, lower bound of all-on
	if res.EnergyKWh >= allOnKWh {
		t.Fatalf("energy %v kWh not below all-on idle floor %v kWh", res.EnergyKWh, allOnKWh)
	}
}

func TestRunEcoCloudDeterministic(t *testing.T) {
	gcfg := trace.DefaultGenConfig()
	gcfg.NumVMs = 80
	gcfg.Horizon = 4 * time.Hour
	ws, err := trace.Generate(gcfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *cluster.Result {
		pol, err := ecocloud.New(ecocloud.DefaultConfig(), 11)
		if err != nil {
			t.Fatal(err)
		}
		cfg := cluster.RunConfig{
			Specs:           dc.StandardFleet(10),
			Workload:        ws,
			Horizon:         4 * time.Hour,
			ControlInterval: 5 * time.Minute,
			SampleInterval:  30 * time.Minute,
			PowerModel:      dc.DefaultPowerModel(),
		}
		res, err := cluster.Run(cfg, pol)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if err := cluster.SameResult(a, b); err != nil {
		t.Fatalf("identical runs diverged: %v", err)
	}
	if a.DemandCache != b.DemandCache {
		t.Fatalf("identical runs' demand caches differ: %+v vs %+v", a.DemandCache, b.DemandCache)
	}
}

// The oracle compares every field of a Result but DemandCache: a real result
// with any one field perturbed, through reflection, must make it name that
// field. A field the test cannot perturb fails it, so a field added to
// Result later is covered or fails loudly.
func TestSameResultNamesEveryField(t *testing.T) {
	gcfg := trace.DefaultGenConfig()
	gcfg.NumVMs = 40
	gcfg.Horizon = 2 * time.Hour
	ws, err := trace.Generate(gcfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(ws)
	cfg.RecordServerUtil = true
	want, err := cluster.Run(cfg, newEcoPolicy(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.SameResult(want, want); err != nil {
		t.Fatalf("a result differs from itself: %v", err)
	}
	w := reflect.ValueOf(want).Elem()
	for i := 0; i < w.NumField(); i++ {
		name := w.Type().Field(i).Name
		v, ok := perturbed(w.Field(i))
		if !ok {
			t.Fatalf("cannot perturb Result.%s of type %s", name, w.Field(i).Type())
		}
		got := *want
		reflect.ValueOf(&got).Elem().Field(i).Set(v)
		err := cluster.SameResult(want, &got)
		switch {
		case name == "DemandCache" && err != nil:
			t.Errorf("the oracle compares DemandCache: %v", err)
		case name != "DemandCache" && (err == nil || err.Error() != "cluster: results differ in "+name):
			t.Errorf("Result.%s perturbed: err = %v", name, err)
		}
	}
}

// perturbed returns a value of v's type that reflect.DeepEqual tells apart
// from v, leaving v and all it points to untouched: a float moves by one ulp,
// an integer by one, a slice, struct or pointer by one element, field or
// pointee. ok is false when no part of v can be changed that way.
func perturbed(v reflect.Value) (out reflect.Value, ok bool) {
	out = reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.Bool:
		out.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		out.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		out.SetUint(v.Uint() + 1)
	case reflect.Float64:
		out.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
	case reflect.String:
		out.SetString(v.String() + "x")
	case reflect.Slice:
		if v.Len() == 0 {
			return reflect.MakeSlice(v.Type(), 1, 1), true
		}
		last, ok := perturbed(v.Index(v.Len() - 1))
		if !ok {
			return out, false
		}
		out.Set(reflect.AppendSlice(reflect.MakeSlice(v.Type(), 0, v.Len()), v))
		out.Index(v.Len() - 1).Set(last)
	case reflect.Pointer:
		if v.IsNil() {
			return reflect.New(v.Type().Elem()), true
		}
		elem, ok := perturbed(v.Elem())
		if !ok {
			return out, false
		}
		out.Set(reflect.New(v.Type().Elem()))
		out.Elem().Set(elem)
	case reflect.Struct:
		out.Set(v)
		for j := v.NumField() - 1; j >= 0; j-- {
			if !out.Field(j).CanSet() {
				continue
			}
			if f, ok := perturbed(v.Field(j)); ok {
				out.Field(j).Set(f)
				return out, true
			}
		}
		return out, false
	default:
		return out, false
	}
	return out, true
}

// Property: for arbitrary seeds and small random workloads, the driver's
// aggregate results stay internally consistent.
func TestQuickRunInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		gcfg := trace.DefaultGenConfig()
		gcfg.NumVMs = 60
		gcfg.Horizon = 3 * time.Hour
		ws, err := trace.Generate(gcfg, seed)
		if err != nil {
			return false
		}
		pol, err := ecocloud.New(ecocloud.DefaultConfig(), seed+1)
		if err != nil {
			return false
		}
		res, err := cluster.Run(cluster.RunConfig{
			Specs:           dc.StandardFleet(8),
			Workload:        ws,
			Horizon:         3 * time.Hour,
			ControlInterval: 5 * time.Minute,
			SampleInterval:  30 * time.Minute,
			PowerModel:      dc.DefaultPowerModel(),
		}, pol)
		if err != nil {
			return false
		}
		switch {
		case res.EnergyKWh <= 0:
			return false
		case res.MeanActiveServers < 0 || res.MeanActiveServers > 8:
			return false
		case res.VMOverloadTimeFrac < 0 || res.VMOverloadTimeFrac > 1:
			return false
		case res.GrantedFracInOverload <= 0 || res.GrantedFracInOverload > 1:
			return false
		case res.TotalLowMigrations < 0 || res.TotalHighMigrations < 0:
			return false
		case res.MaxConcurrentMigrations > res.TotalLowMigrations+res.TotalHighMigrations:
			return false
		case res.TotalHibernations > res.TotalActivations:
			// Every hibernation needs a prior activation (fleet starts off).
			return false
		}
		// Series totals must agree with scalar totals.
		lowFromSeries := 0.0
		for _, v := range res.LowMigrations.V {
			lowFromSeries += v * 0.5 // 30-minute buckets, rate is per hour
		}
		diff := lowFromSeries - float64(res.TotalLowMigrations)
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Soak: a week of simulated operation at small scale, checking that nothing
// degenerates over long horizons (counters stay sane, invariants hold,
// energy accumulates linearly-ish).
func TestSoakWeekLong(t *testing.T) {
	if testing.Short() {
		t.Skip("week-long soak")
	}
	gcfg := trace.DefaultGenConfig()
	gcfg.NumVMs = 300
	gcfg.Horizon = 7 * 24 * time.Hour
	ws, err := trace.Generate(gcfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := ecocloud.New(ecocloud.DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(cluster.RunConfig{
		Specs:           dc.StandardFleet(20),
		Workload:        ws,
		Horizon:         gcfg.Horizon,
		ControlInterval: 5 * time.Minute,
		SampleInterval:  time.Hour,
		PowerModel:      dc.DefaultPowerModel(),
	}, pol)
	if err != nil {
		t.Fatal(err)
	}
	if res.VMOverloadTimeFrac > 0.001 {
		t.Fatalf("overload crept up over a week: %v", res.VMOverloadTimeFrac)
	}
	if res.Saturations != 0 {
		t.Fatalf("saturations = %d", res.Saturations)
	}
	// Daily rhythm: roughly one activation/hibernation wave per day; after
	// the first-day transient the counts should stay bounded (no flapping).
	if res.TotalActivations > 20*7*4 {
		t.Fatalf("activation flapping: %d over a week", res.TotalActivations)
	}
	// Energy over 7 days must exceed 7x the daily hibernated floor and stay
	// under 7x the all-on ceiling.
	floor := 7 * 24.0 * 20 * 5 / 1000 // all hibernated at 5 W
	ceiling := 7 * 24.0 * 20 * 250 / 1000
	if res.EnergyKWh <= floor || res.EnergyKWh >= ceiling {
		t.Fatalf("energy %v kWh outside (%v, %v)", res.EnergyKWh, floor, ceiling)
	}
}

// The event journal must reconstruct the run: every placement, departure,
// migration and switch appears exactly once, in timestamp order, with the
// key set of its kind, and the replayed placement state matches the
// counters.
func TestRunEventJournal(t *testing.T) {
	gcfg := trace.DefaultGenConfig()
	gcfg.NumVMs = 80
	gcfg.Horizon = 4 * time.Hour
	ws, err := trace.Generate(gcfg, 17)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := ecocloud.New(ecocloud.DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := cluster.RunConfig{
		Specs:           dc.StandardFleet(10),
		Workload:        ws,
		Horizon:         4 * time.Hour,
		ControlInterval: 5 * time.Minute,
		SampleInterval:  30 * time.Minute,
		PowerModel:      dc.DefaultPowerModel(),
	}
	res, err := cluster.Run(cfg, pol, cluster.WithObs(obs.NewRecorder(nil, obs.NewJournal(&buf))))
	if err != nil {
		t.Fatal(err)
	}
	// The key set of each kind: server always, vm on the VM events, dest on
	// migrations only.
	journalKeys := map[string]string{
		"place":     "kind server t_sim_ns vm",
		"remove":    "kind server t_sim_ns vm",
		"migrate":   "dest kind server t_sim_ns vm",
		"activate":  "kind server t_sim_ns",
		"hibernate": "kind server t_sim_ns",
	}
	type line struct {
		TNS    int64  `json:"t_sim_ns"`
		Kind   string `json:"kind"`
		VM     int    `json:"vm"`
		Server int    `json:"server"`
		Dest   int    `json:"dest"`
	}
	counts := map[string]int{}
	lastT := int64(-1)
	placed := map[int]int{} // vm -> server, replayed
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatal(err)
		}
		var l line
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(fields))
		for k := range fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got, want := strings.Join(keys, " "), journalKeys[l.Kind]; got != want {
			t.Fatalf("%s line has keys %q, want %q: %s", l.Kind, got, want, raw)
		}
		if l.TNS < lastT {
			t.Fatalf("journal out of order: %d after %d", l.TNS, lastT)
		}
		lastT = l.TNS
		counts[l.Kind]++
		switch l.Kind {
		case "place":
			placed[l.VM] = l.Server
		case "remove":
			if placed[l.VM] != l.Server {
				t.Fatalf("remove of VM %d from server %d, but replay has it on %d", l.VM, l.Server, placed[l.VM])
			}
			delete(placed, l.VM)
		case "migrate":
			if placed[l.VM] != l.Server {
				t.Fatalf("migrate of VM %d from wrong source", l.VM)
			}
			placed[l.VM] = l.Dest
		}
	}
	if counts["place"] != 80 {
		t.Fatalf("placements journaled = %d, want 80", counts["place"])
	}
	if counts["migrate"] != res.TotalLowMigrations+res.TotalHighMigrations {
		t.Fatalf("migrations journaled = %d, counters say %d",
			counts["migrate"], res.TotalLowMigrations+res.TotalHighMigrations)
	}
	if counts["activate"] != res.TotalActivations || counts["hibernate"] != res.TotalHibernations {
		t.Fatalf("switches journaled = %d/%d, counters %d/%d",
			counts["activate"], counts["hibernate"], res.TotalActivations, res.TotalHibernations)
	}
	// All VMs run past the horizon, so no removes; the replayed placement
	// count must match the final state.
	if len(placed) != 80 {
		t.Fatalf("replayed placements = %d", len(placed))
	}
}
