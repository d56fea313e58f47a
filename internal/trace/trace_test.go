package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/fstest"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

func smallGenConfig() GenConfig {
	cfg := DefaultGenConfig()
	cfg.NumVMs = 300
	cfg.Horizon = 12 * time.Hour
	return cfg
}

func TestVMDemandAt(t *testing.T) {
	vm := &VM{
		ID: 1, Start: time.Hour, End: 3 * time.Hour,
		Epoch: 30 * time.Minute, Demand: []float64{100, 200, 300, 400},
	}
	cases := []struct {
		t    time.Duration
		want float64
	}{
		{0, 0},           // before start
		{time.Hour, 100}, // first epoch
		{time.Hour + 29*time.Minute, 100},
		{time.Hour + 30*time.Minute, 200},
		{2*time.Hour + 59*time.Minute, 400}, // clamped to last sample
		{3 * time.Hour, 0},                  // departed
	}
	for _, c := range cases {
		if got := vm.DemandAt(c.t); got != c.want {
			t.Errorf("DemandAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

// A constant-demand VM with Epoch == 0 used to divide by zero; it must act
// as a constant step over its whole lifetime instead.
func TestVMDemandAtZeroEpochConstant(t *testing.T) {
	vm := &VM{ID: 1, Start: time.Hour, End: 3 * time.Hour, Epoch: 0, Demand: []float64{150}}
	cases := []struct {
		t    time.Duration
		want float64
	}{
		{0, 0},
		{time.Hour, 150},
		{2 * time.Hour, 150},
		{3*time.Hour - time.Nanosecond, 150},
		{3 * time.Hour, 0},
	}
	for _, c := range cases {
		if got := vm.DemandAt(c.t); got != c.want {
			t.Errorf("DemandAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestVMValidate(t *testing.T) {
	ok := []*VM{
		{ID: 0, End: time.Hour, Epoch: time.Minute, Demand: []float64{1, 2}},
		{ID: 1, End: time.Hour, Epoch: 0, Demand: []float64{5}}, // constant, zero epoch
		{ID: 2, End: time.Hour, Epoch: -time.Minute, Demand: nil},
		// −0 and the extremes of the finite non-negative range.
		{ID: 12, End: time.Hour, Epoch: time.Minute, Demand: []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64}},
	}
	for _, vm := range ok {
		if err := vm.Validate(); err != nil {
			t.Errorf("VM %d rejected: %v", vm.ID, err)
		}
	}
	bad := []*VM{
		{ID: 3, End: time.Hour, Epoch: 0, Demand: []float64{1, 2}}, // multi-sample, zero epoch
		{ID: 4, End: time.Hour, Epoch: -time.Minute, Demand: []float64{1, 2}},
		{ID: 5, Start: time.Hour, End: 0, Epoch: time.Minute, Demand: []float64{1}},
		{ID: 6, End: time.Hour, Epoch: time.Minute, Demand: []float64{-1}},
		{ID: 7, End: time.Hour, Epoch: time.Minute, Demand: []float64{math.NaN()}},
		{ID: 8, End: time.Hour, Epoch: time.Minute, Demand: []float64{1}, RAMMB: -4},
		{ID: 9, End: time.Hour, Epoch: time.Minute, Demand: []float64{1, -math.MaxFloat64}},
		{ID: 10, End: time.Hour, Epoch: time.Minute, Demand: []float64{1, math.Inf(1)}},
		{ID: 11, End: time.Hour, Epoch: time.Minute, Demand: []float64{1, math.Inf(-1)}},
	}
	for _, vm := range bad {
		if err := vm.Validate(); err == nil {
			t.Errorf("VM %d accepted", vm.ID)
		}
	}
	set := &Set{VMs: []*VM{ok[0], bad[0]}}
	if err := set.Validate(); err == nil {
		t.Error("set with an invalid VM accepted")
	}
}

// SumDemandAt, and Set.TotalDemandAt through it, must add exactly what a
// DemandAt loop adds, in slice order, and SumDemandAt's window must be
// exactly the intersection of the VMs' own windows —
// on a shared sampling grid and on every way off it. Probes sit on each epoch
// boundary of the grid and 1 ns either side of it.
func TestSumDemandAtMatchesDemandAt(t *testing.T) {
	const (
		start = time.Hour
		epoch = 30 * time.Minute
	)
	samples := func(base float64, n int) []float64 {
		d := make([]float64, n)
		for i := range d {
			d[i] = base + 0.1*float64(i*i) + 1/3.0
		}
		return d
	}
	// grid VMs have 6 samples and outlive them: from epoch 5 on they sit on
	// their last sample, whose window runs to End.
	grid := func(id int) *VM {
		return &VM{ID: id, Start: start, End: start + 8*epoch, Epoch: epoch, Demand: samples(100*float64(id+1), 6)}
	}
	cases := []struct {
		name string
		vms  []*VM
	}{
		{"shared grid", []*VM{grid(0), grid(1), grid(2)}},
		{"one on its last sample", []*VM{grid(0),
			{ID: 1, Start: start, End: start + 8*epoch, Epoch: epoch, Demand: samples(7, 3)}, grid(2)}},
		{"end inside an epoch", []*VM{grid(0),
			{ID: 1, Start: start, End: start + 2*epoch + 10*time.Minute, Epoch: epoch, Demand: samples(50, 6)}, grid(2)}},
		{"end on a boundary", []*VM{grid(0),
			{ID: 1, Start: start, End: start + 3*epoch, Epoch: epoch, Demand: samples(50, 6)}}},
		{"other start last", []*VM{grid(0), grid(1),
			{ID: 2, Start: start + epoch, End: start + 8*epoch, Epoch: epoch, Demand: samples(80, 6)}}},
		{"other epoch last", []*VM{grid(0), grid(1),
			{ID: 2, Start: start, End: start + 8*epoch, Epoch: epoch / 2, Demand: samples(80, 12)}}},
		{"single sample and empty", []*VM{grid(0),
			{ID: 1, Start: start, End: start + 4*epoch, Epoch: 0, Demand: []float64{150}},
			{ID: 2, Start: start, End: start + 8*epoch, Epoch: epoch, Demand: nil}}},
		{"single VM", []*VM{grid(0)}},
		{"empty", nil},
	}
	var probes []time.Duration
	for k := -2; k <= 10; k++ {
		b := start + time.Duration(k)*epoch
		probes = append(probes, b-1, b, b+1, b+epoch/2)
	}
	for _, c := range cases {
		for _, p := range probes {
			want := 0.0
			wantFrom, wantUntil := minTime, maxTime
			for _, v := range c.vms {
				want += v.DemandAt(p)
				_, f, u := v.demandIndexAt(p)
				if f > wantFrom {
					wantFrom = f
				}
				if u < wantUntil {
					wantUntil = u
				}
			}
			got, from, until := SumDemandAt(c.vms, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: SumDemandAt(%v) = %v, want %v", c.name, p, got, want)
			}
			if from != wantFrom || until != wantUntil {
				t.Fatalf("%s: window at %v = [%v, %v), want [%v, %v)", c.name, p, from, until, wantFrom, wantUntil)
			}
			if total := (&Set{VMs: c.vms}).TotalDemandAt(p); math.Float64bits(total) != math.Float64bits(want) {
				t.Fatalf("%s: TotalDemandAt(%v) = %v, want %v", c.name, p, total, want)
			}
		}
	}
	// The shared grid takes the grid path, a one-entry SumEpochs, inside its
	// first five epochs, and only there.
	vms := cases[0].vms
	var one [1]float64
	for _, p := range probes {
		n, _, _ := SumEpochs(vms, p, one[:])
		if want := p >= start && p < start+5*epoch; (n == 1) != want {
			t.Fatalf("shared grid at %v: shared path %v, want %v", p, n == 1, want)
		}
	}
}

// gridEpochs is SumEpochs's block length by definition, at most limit: the
// VMs share vms[0]'s Start and positive Epoch, t is not before Start, and
// entry j exists while every VM lives through epoch k+j and has a sample
// after it.
func gridEpochs(vms []*VM, t time.Duration, limit int) int {
	if len(vms) == 0 {
		return 0
	}
	start, epoch := vms[0].Start, vms[0].Epoch
	if epoch <= 0 || t < start {
		return 0
	}
	for _, v := range vms {
		if v.Start != start || v.Epoch != epoch {
			return 0
		}
	}
	k := int((t - start) / epoch)
	n := 0
	for ; n < limit; n++ {
		until := start + time.Duration(k+n+1)*epoch
		for _, v := range vms {
			if until > v.End || k+n >= len(v.Demand)-1 {
				return n
			}
		}
	}
	return n
}

// epochVMSet draws a fuzz-style VM set with random sample counts and
// lifetimes: most sets on one shared grid, the rest with each VM moved off
// it by Start or Epoch, cut to one constant sample, or given the zero Epoch
// of the churn workloads.
func epochVMSet(src *rng.Source, start, epoch time.Duration) []*VM {
	vms := make([]*VM, 1+src.Intn(10))
	onGrid := src.Bernoulli(0.6)
	for i := range vms {
		v := &VM{ID: i, Start: start, Epoch: epoch, Demand: make([]float64, 1+src.Intn(24))}
		v.End = start + time.Duration(src.Intn(int(30*epoch)))
		if src.Bernoulli(0.5) {
			v.End = start + time.Duration(len(v.Demand)+src.Intn(4))*epoch
		}
		if !onGrid {
			switch src.Intn(4) {
			case 0:
				v.Start += epoch
			case 1:
				v.Epoch = epoch / 2
			case 2:
				v.Demand = v.Demand[:1]
			case 3:
				v.Epoch, v.Demand = 0, v.Demand[:1]
			}
		}
		for j := range v.Demand {
			v.Demand[j] = src.Float64()*2400 + 1/3.0
		}
		vms[i] = v
	}
	return vms
}

// checkSumEpochs holds SumEpochs(vms, t, sums) to its definition: n is
// gridEpochs's, 0 exactly when SumDemandAt locates each VM's window, and
// each sums[j] has the bits and the window SumDemandAt (and a DemandAt
// loop) gives at the start of epoch k+j; epoch k+n is off the grid unless
// the block is full.
func checkSumEpochs(t *testing.T, name string, vms []*VM, at time.Duration, sums []float64) {
	t.Helper()
	for i := range sums {
		sums[i] = math.NaN() // SumEpochs must not read what it has not written
	}
	n, from, epoch := SumEpochs(vms, at, sums)
	if want := gridEpochs(vms, at, len(sums)); n != want {
		t.Fatalf("%s at %v: n = %d, want %d", name, at, n, want)
	}
	// SumDemandAt takes its grid path exactly when a one-entry block fills.
	var one [1]float64
	if m, _, _ := SumEpochs(vms, at, one[:]); (n == 0) != (m == 0) {
		t.Fatalf("%s at %v: block of %d, one-entry block of %d", name, at, n, m)
	}
	if n == 0 {
		return
	}
	if at < from || at >= from+epoch {
		t.Fatalf("%s at %v: block starts with epoch [%v, %v)", name, at, from, from+epoch)
	}
	for j := 0; j < n; j++ {
		tj := from + time.Duration(j)*epoch
		want, f, u := SumDemandAt(vms, tj)
		if math.Float64bits(sums[j]) != math.Float64bits(want) {
			t.Fatalf("%s at %v: sums[%d] = %v, SumDemandAt(%v) = %v", name, at, j, sums[j], tj, want)
		}
		if f != tj || u != tj+epoch {
			t.Fatalf("%s at %v: entry %d spans [%v, %v), SumDemandAt window [%v, %v)", name, at, j, tj, tj+epoch, f, u)
		}
		loop := 0.0
		for _, v := range vms {
			loop += v.DemandAt(tj)
		}
		if math.Float64bits(loop) != math.Float64bits(sums[j]) {
			t.Fatalf("%s at %v: sums[%d] = %v, DemandAt loop %v", name, at, j, sums[j], loop)
		}
	}
	if next := from + time.Duration(n)*epoch; n < len(sums) && gridEpochs(vms, next, 1) != 0 {
		t.Fatalf("%s at %v: block of %d stops at %v, still on the grid", name, at, n, next)
	}
}

// SumEpochs must give, for each epoch of its block, exactly what SumDemandAt
// gives there, on random VM sets at every grid boundary, 1 ns either side
// and mid-epoch, for blocks of 1, 3 and 8.
func TestSumEpochsMatchesSumDemandAt(t *testing.T) {
	const (
		start = time.Hour
		epoch = 5 * time.Minute
	)
	sizes := []int{1, 3, 8}
	blocks := 0
	for seed := uint64(1); seed <= 300; seed++ {
		src := rng.New(seed)
		vms := epochVMSet(src, start, epoch)
		for k := -2; k <= 32; k++ {
			b := start + time.Duration(k)*epoch
			for _, at := range []time.Duration{b - 1, b, b + 1, b + epoch/2} {
				for _, size := range sizes {
					sums := make([]float64, size)
					checkSumEpochs(t, fmt.Sprintf("seed %d", seed), vms, at, sums)
					if n, _, _ := SumEpochs(vms, at, sums); n == 8 {
						blocks++
					}
				}
			}
		}
	}
	if blocks == 0 {
		t.Fatal("no probe filled a block of 8")
	}
}

// The block stops where a VM ends or reaches its last sample, never
// reaches before Start, and a VM that never ends (End = MaxInt64) does not
// overflow it.
func TestSumEpochsBlockEnds(t *testing.T) {
	const (
		start = 2 * time.Hour
		epoch = 5 * time.Minute
	)
	grid := func(id, samples int, end time.Duration) *VM {
		d := make([]float64, samples)
		for i := range d {
			d[i] = 10*float64(id+1) + float64(i)/3
		}
		return &VM{ID: id, Start: start, End: end, Epoch: epoch, Demand: d}
	}
	long := start + 100*epoch
	cases := []struct {
		name string
		vms  []*VM
		at   time.Duration
		n    int
	}{
		{"full block", []*VM{grid(0, 40, long), grid(1, 40, long)}, start + 3*epoch, 8},
		{"end inside the block", []*VM{grid(0, 40, long), grid(1, 40, start+7*epoch+epoch/2), grid(2, 40, long)}, start + 2*epoch, 5},
		{"end on a block epoch boundary", []*VM{grid(0, 40, long), grid(1, 40, start+6*epoch)}, start + 2*epoch, 4},
		{"last sample inside the block", []*VM{grid(0, 40, long), grid(1, 6, long), grid(2, 40, long)}, start + epoch, 4},
		{"end inside the first epoch", []*VM{grid(0, 40, long), grid(1, 40, start+2*epoch+1)}, start + 2*epoch, 0},
		{"on the last sample", []*VM{grid(0, 40, long), grid(1, 3, long)}, start + 2*epoch, 0},
		{"before start", []*VM{grid(0, 40, long)}, start - 1, 0},
		{"never ends", []*VM{grid(0, 40, long), grid(1, 40, math.MaxInt64)}, start + 30*epoch, 8},
		{"never ends, last sample", []*VM{grid(0, 40, math.MaxInt64)}, start + 35*epoch, 4},
	}
	for _, c := range cases {
		sums := make([]float64, 8)
		n, _, _ := SumEpochs(c.vms, c.at, sums)
		if n != c.n {
			t.Fatalf("%s: n = %d, want %d", c.name, n, c.n)
		}
		checkSumEpochs(t, c.name, c.vms, c.at, sums)
	}
}

func TestVMAvg(t *testing.T) {
	vm := &VM{Epoch: time.Minute, End: time.Hour, Demand: []float64{1, 2, 3}}
	if vm.Avg() != 2 {
		t.Fatalf("Avg = %v", vm.Avg())
	}
	empty := &VM{}
	if empty.Avg() != 0 {
		t.Fatal("empty VM should have zero avg")
	}
}

// The Generate golden pins every field of every VM that Generate builds, for
// five configurations and two seeds each, at GOMAXPROCS 1 and 4. Regenerate
// (only for an intentional change to the generator) with:
//
//	go test ./internal/trace -run TestGenerateDeterministic -update-generate-golden
var updateGenerateGolden = flag.Bool("update-generate-golden", false, "rewrite the Generate golden")

var generateGoldenPath = filepath.Join("testdata", "generate_golden.txt")

// hashSet returns the SHA-256 of every field of every VM in the set, in
// slice order, with floats hashed by their bits.
func hashSet(set *Set) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(math.Float64bits(set.RefCapacityMHz))
	put(uint64(len(set.VMs)))
	for _, vm := range set.VMs {
		put(uint64(vm.ID))
		put(uint64(vm.Start))
		put(uint64(vm.End))
		put(uint64(vm.Epoch))
		put(math.Float64bits(vm.RAMMB))
		put(uint64(len(vm.Demand)))
		for _, d := range vm.Demand {
			put(math.Float64bits(d))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateDeterministic checks Generate against the golden at
// GOMAXPROCS 1 and 4, checks that the two seeds of each configuration
// differ, and checks that growing one VM's demand slice cannot write into
// the next VM's samples.
func TestGenerateDeterministic(t *testing.T) {
	paper := DefaultGenConfig()
	daily := DefaultGenConfig()
	daily.NumVMs, daily.Horizon = 3000, 24*time.Hour
	ram := smallGenConfig()
	ram.RAMMedianMB, ram.RAMSigma, ram.RAMAntiCorr = 1024, 0.5, true
	// The horizon is not a multiple of the epoch.
	ragged := DefaultGenConfig()
	ragged.NumVMs, ragged.Horizon, ragged.Epoch = 37, 7*time.Hour+13*time.Minute, 7*time.Minute
	ragged.PeakHour, ragged.DailyAmplitude = 3.3, 0.6
	oneSample := smallGenConfig()
	oneSample.Horizon = oneSample.Epoch
	configs := []struct {
		name string
		cfg  GenConfig
	}{
		{"paper", paper},
		{"daily", daily},
		{"ram-anticorr", ram},
		{"ragged", ragged},
		{"one-sample", oneSample},
	}

	seeds := []uint64{1, 99}
	var lines []string
	for _, gc := range configs {
		hashes := map[uint64]string{}
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			for _, seed := range seeds {
				set, err := Generate(gc.cfg, seed)
				if err != nil {
					runtime.GOMAXPROCS(prev)
					t.Fatal(err)
				}
				sum := hashSet(set)
				if h, ok := hashes[seed]; ok && h != sum {
					t.Errorf("%s seed %d: GOMAXPROCS %d hashes %s, GOMAXPROCS 1 hashed %s", gc.name, seed, procs, sum, h)
				}
				hashes[seed] = sum
			}
			runtime.GOMAXPROCS(prev)
		}
		if hashes[seeds[0]] == hashes[seeds[1]] {
			t.Errorf("%s: seeds %d and %d produced identical traces", gc.name, seeds[0], seeds[1])
		}
		for _, seed := range seeds {
			lines = append(lines, fmt.Sprintf("%s %d %s", gc.name, seed, hashes[seed]))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateGenerateGolden {
		if err := os.WriteFile(generateGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(generateGoldenPath)
		if err != nil {
			t.Fatalf("Generate golden missing (run with -update-generate-golden): %v", err)
		}
		if got != string(want) {
			t.Errorf("Generate output moved from the golden:\ngot:\n%swant:\n%s", got, want)
		}
	}

	set, err := Generate(smallGenConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	next := set.VMs[1].Demand[0]
	set.VMs[0].Demand = append(set.VMs[0].Demand, -1)
	if set.VMs[1].Demand[0] != next {
		t.Fatalf("append to VM 0's demand overwrote VM 1's first sample: %v, was %v", set.VMs[1].Demand[0], next)
	}
}

func TestGenerateSampleCountAndBounds(t *testing.T) {
	cfg := smallGenConfig()
	set, err := Generate(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantSamples := int(cfg.Horizon / cfg.Epoch)
	for _, vm := range set.VMs {
		if len(vm.Demand) != wantSamples {
			t.Fatalf("VM %d has %d samples, want %d", vm.ID, len(vm.Demand), wantSamples)
		}
		for k, d := range vm.Demand {
			if d < 0 || d > cfg.MaxDemandMHz {
				t.Fatalf("VM %d sample %d = %v out of [0,%v]", vm.ID, k, d, cfg.MaxDemandMHz)
			}
		}
	}
}

// Fig. 4 shape: the bulk of VMs average well under 20% of capacity, with a
// nonzero heavy tail.
func TestGenerateFig4Shape(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.NumVMs = 3000
	cfg.Horizon = 6 * time.Hour
	set, err := Generate(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	h := set.AvgUtilHistogram(20) // 5%-wide bins
	under20 := h.FractionWithin(0, 20)
	if under20 < 0.85 {
		t.Fatalf("fraction of VMs averaging <20%% = %v, want >0.85 (Fig. 4)", under20)
	}
	over50 := h.FractionWithin(50, 100)
	if over50 == 0 {
		t.Fatal("no heavy-tail VMs above 50% (Fig. 4 shows a tail)")
	}
	if over50 > 0.10 {
		t.Fatalf("heavy tail too fat: %v above 50%%", over50)
	}
	// The mode should be the lowest bin, as in Fig. 4.
	mode := 0
	for i := 1; i < h.Bins(); i++ {
		if h.Count(i) > h.Count(mode) {
			mode = i
		}
	}
	if mode != 0 {
		t.Fatalf("mode bin = %d, want 0 (utilization mode near zero)", mode)
	}
}

// Fig. 5 shape: ~94% of deviations within ±10 points of capacity. Our
// synthetic workload is gentler than PlanetLab, so assert >=0.90.
func TestGenerateFig5Shape(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.NumVMs = 1000
	cfg.Horizon = 12 * time.Hour
	set, err := Generate(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	h := set.DeviationHistogram(80)
	within10 := h.FractionWithin(-10, 10)
	if within10 < 0.90 {
		t.Fatalf("deviations within ±10%% = %v, want >=0.90 (paper: ~94%%)", within10)
	}
}

// The daily pattern must swing the overall load with a peak near PeakHour.
func TestGenerateDailyPattern(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.NumVMs = 2000
	cfg.Horizon = 24 * time.Hour
	set, err := Generate(cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	night := set.TotalDemandAt(2 * time.Hour)
	peak := set.TotalDemandAt(14 * time.Hour)
	if peak <= night*1.3 {
		t.Fatalf("peak/night demand ratio = %v, want >1.3", peak/night)
	}
}

// Overall-load calibration: with the paper's 400-server mix (one third each
// of 4/6/8 cores at 2 GHz => 4.8M MHz total) the default 6,000-VM set should
// load the DC between ~20% and ~55% through the day, as Fig. 6 shows.
func TestGenerateOverallLoadCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("full 6000-VM set")
	}
	cfg := DefaultGenConfig()
	set, err := Generate(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	const totalCapacity = 400.0 / 3 * (4 + 6 + 8) * 2000 // MHz
	lo, hi := 1.0, 0.0
	for h := 0; h < 48; h++ {
		load := set.TotalDemandAt(time.Duration(h)*time.Hour) / totalCapacity
		if load < lo {
			lo = load
		}
		if load > hi {
			hi = load
		}
	}
	if lo < 0.15 || hi > 0.65 {
		t.Fatalf("overall load range [%v, %v], want within [0.15, 0.65]", lo, hi)
	}
	if hi-lo < 0.08 {
		t.Fatalf("daily swing too flat: [%v, %v]", lo, hi)
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []func(*GenConfig){
		func(c *GenConfig) { c.NumVMs = 0 },
		func(c *GenConfig) { c.Horizon = 0 },
		func(c *GenConfig) { c.Epoch = 0 },
		func(c *GenConfig) { c.Epoch = c.Horizon * 2 },
		func(c *GenConfig) { c.RefCapacityMHz = 0 },
		func(c *GenConfig) { c.AvgMedianMHz = -1 },
		func(c *GenConfig) { c.HeavyFraction = 1.5 },
		func(c *GenConfig) { c.HeavyHiMHz = c.HeavyLoMHz / 2 },
		func(c *GenConfig) { c.DailyAmplitude = 1.0 },
		func(c *GenConfig) { c.NoiseRho = 1.0 },
		func(c *GenConfig) { c.MaxDemandMHz = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultGenConfig()
		mutate(&cfg)
		if _, err := Generate(cfg, 1); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGenerateChurnBasics(t *testing.T) {
	cfg := DefaultChurnConfig()
	cfg.Horizon = 6 * time.Hour
	cfg.InitialVMs = 200
	cfg.ArrivalPerHour = 50
	set, err := GenerateChurn(cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.VMs) < cfg.InitialVMs {
		t.Fatalf("only %d VMs generated", len(set.VMs))
	}
	initial := 0
	for _, vm := range set.VMs {
		if vm.Start == 0 {
			initial++
		}
		if vm.End <= vm.Start {
			t.Fatalf("VM %d (start %v, end %v) is never alive", vm.ID, vm.Start, vm.End)
		}
		if len(vm.Demand) != 1 {
			t.Fatalf("churn VM %d has %d samples, want 1 (constant demand)", vm.ID, len(vm.Demand))
		}
		if vm.Demand[0] <= 0 || vm.Demand[0] > cfg.MaxDemandMHz {
			t.Fatalf("churn VM %d demand %v out of range", vm.ID, vm.Demand[0])
		}
	}
	if initial != cfg.InitialVMs {
		t.Fatalf("initial VMs = %d, want %d", initial, cfg.InitialVMs)
	}
}

// TestGenerateChurnFinalTickDemand is the horizon-clamp regression test:
// clamping VM.End to exactly cfg.Horizon made every long-lived VM dead at the
// t == Horizon control tick (lifetimes are half-open), so the final tick saw
// zero demand and every server ran a doomed migrateLow invitation round. VMs
// must outlive the horizon instead, keeping demand nonzero at the last tick.
func TestGenerateChurnFinalTickDemand(t *testing.T) {
	cfg := DefaultChurnConfig()
	cfg.Horizon = 6 * time.Hour
	cfg.InitialVMs = 300
	cfg.ArrivalPerHour = 100
	set, err := GenerateChurn(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	if alive := set.AliveAt(cfg.Horizon); alive == 0 {
		t.Fatalf("no VM is alive at the horizon: every End was clamped to %v", cfg.Horizon)
	}
	if d := set.TotalDemandAt(cfg.Horizon); d <= 0 {
		t.Fatalf("total demand at the final tick = %v, want > 0", d)
	}
	outliving := 0
	for _, vm := range set.VMs {
		if vm.End > cfg.Horizon {
			outliving++
		}
	}
	// With a 90-minute mean lifetime and continuous arrivals, a large share
	// of the population is mid-life at the horizon.
	if outliving < len(set.VMs)/20 {
		t.Fatalf("only %d of %d VMs outlive the horizon", outliving, len(set.VMs))
	}
}

// TestGenerateChurnZeroLifetime pins the zero-lifetime choice: an exponential
// draw that truncates to zero duration is floored to the smallest
// representable lifetime, so no generated VM has Start == End (a VM that
// would never be alive and whose departure would fire at its arrival time).
func TestGenerateChurnZeroLifetime(t *testing.T) {
	cfg := DefaultChurnConfig()
	cfg.Horizon = time.Hour
	cfg.InitialVMs = 500
	cfg.ArrivalPerHour = 1000
	// A 1ns mean lifetime truncates ~63% of draws to zero without the floor.
	cfg.MeanLifetime = time.Nanosecond
	set, err := GenerateChurn(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range set.VMs {
		if vm.End <= vm.Start {
			t.Fatalf("VM %d has start %v, end %v: never alive", vm.ID, vm.Start, vm.End)
		}
		if !vm.Alive(vm.Start) {
			t.Fatalf("VM %d is not alive at its own start", vm.ID)
		}
	}
}

func TestGenerateChurnDeterministic(t *testing.T) {
	cfg := DefaultChurnConfig()
	cfg.Horizon = 4 * time.Hour
	cfg.InitialVMs = 100
	a, _ := GenerateChurn(cfg, 5)
	b, _ := GenerateChurn(cfg, 5)
	if len(a.VMs) != len(b.VMs) {
		t.Fatalf("population %d vs %d across identical seeds", len(a.VMs), len(b.VMs))
	}
	for i := range a.VMs {
		if a.VMs[i].Start != b.VMs[i].Start || a.VMs[i].Demand[0] != b.VMs[i].Demand[0] {
			t.Fatalf("VM %d differs across identical seeds", i)
		}
	}
}

func TestGenerateChurnArrivalRate(t *testing.T) {
	cfg := DefaultChurnConfig()
	cfg.Horizon = 24 * time.Hour
	cfg.InitialVMs = 0
	cfg.ArrivalPerHour = 200
	cfg.DailyAmplitude = 0 // homogeneous: empirical rate should match base
	set, err := GenerateChurn(cfg, 31)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(len(set.VMs)) / 24
	if math.Abs(got-200) > 20 {
		t.Fatalf("empirical arrival rate %v/h, want ~200/h", got)
	}
}

// analyticArrivals integrates base*(1 + A*cos(2*pi*(h-peak)/24)) over
// [a, b] hours: the expected arrival count of the modulated process.
func analyticArrivals(base, amp, peak, a, b float64) float64 {
	primitive := func(h float64) float64 {
		return h + amp*(24/(2*math.Pi))*math.Sin(2*math.Pi*(h-peak)/24)
	}
	return base * (primitive(b) - primitive(a))
}

// TestThinningMatchesRateIntegral checks GenerateChurn's non-homogeneous
// Poisson thinning against the analytic rate integral, both over the full
// day (where the cosine integrates away) and over windows where it does
// not: the empirical counts must sit within 4 sigma of the integrals.
func TestThinningMatchesRateIntegral(t *testing.T) {
	cfg := DefaultChurnConfig()
	cfg.Horizon = 24 * time.Hour
	cfg.InitialVMs = 0
	cfg.ArrivalPerHour = 2000
	cfg.DailyAmplitude = 0.45
	cfg.PeakHour = 14
	set, err := GenerateChurn(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	count := func(a, b float64) float64 {
		n := 0
		for _, vm := range set.VMs {
			if h := vm.Start.Hours(); h >= a && h < b {
				n++
			}
		}
		return float64(n)
	}
	check := func(name string, a, b float64) {
		want := analyticArrivals(cfg.ArrivalPerHour, cfg.DailyAmplitude, cfg.PeakHour, a, b)
		got := count(a, b)
		// Poisson sd = sqrt(want); allow 4 sigma.
		if tol := 4 * math.Sqrt(want); math.Abs(got-want) > tol {
			t.Errorf("%s [%gh,%gh): %.0f arrivals, want %.0f +/- %.0f", name, a, b, got, want, tol)
		}
	}
	check("full day", 0, 24)
	check("peak quarter", 11, 17)
	check("trough hour", 23, 24)
	check("morning ramp", 5, 11)
}

func TestRates(t *testing.T) {
	// Hand-built set: 2 VMs at t=0 living 30m; 1 arrival at t=90m living to end.
	set := &Set{
		RefCapacityMHz: 8000,
		VMs: []*VM{
			{ID: 0, Start: 0, End: 30 * time.Minute, Epoch: time.Hour, Demand: []float64{100}},
			{ID: 1, Start: 0, End: 30 * time.Minute, Epoch: time.Hour, Demand: []float64{100}},
			{ID: 2, Start: 90 * time.Minute, End: 2 * time.Hour, Epoch: time.Hour, Demand: []float64{100}},
		},
	}
	lambda, mu := set.Rates(2*time.Hour, time.Hour)
	if len(lambda) != 2 || len(mu) != 2 {
		t.Fatalf("rate buckets = %d/%d, want 2/2", len(lambda), len(mu))
	}
	if lambda[0] != 0 || lambda[1] != 1 {
		t.Fatalf("lambda = %v, want [0 1]", lambda)
	}
	// Bucket 0: 2 departures, 2 alive at midpoint -> mu = 1/h.
	if mu[0] != 1 {
		t.Fatalf("mu[0] = %v, want 1", mu[0])
	}
}

func TestRatesPartialTrailingBucket(t *testing.T) {
	// Horizon 90m with 1h buckets: the final bucket covers only [60m, 90m).
	// One arrival and one departure land there; both must be scaled by the
	// true 30m width (2/h per event), not the full-bucket 1/h that the old
	// int(horizon/bucket) fold produced.
	set := &Set{
		RefCapacityMHz: 8000,
		VMs: []*VM{
			{ID: 0, Start: 0, End: 75 * time.Minute, Epoch: time.Hour, Demand: []float64{100}},
			{ID: 1, Start: 0, End: 3 * time.Hour, Epoch: time.Hour, Demand: []float64{100}},
			{ID: 2, Start: 70 * time.Minute, End: 3 * time.Hour, Epoch: time.Hour, Demand: []float64{100}},
		},
	}
	lambda, mu := set.Rates(90*time.Minute, time.Hour)
	if len(lambda) != 2 || len(mu) != 2 {
		t.Fatalf("rate buckets = %d/%d, want 2/2 (partial trailing bucket dropped?)", len(lambda), len(mu))
	}
	if lambda[0] != 0 || lambda[1] != 2 {
		t.Fatalf("lambda = %v, want [0 2] (1 arrival over a 30m bucket)", lambda)
	}
	// Final bucket: 1 departure over 30m with 2 VMs alive at its start (VM 0
	// and VM 1; VM 2 arrives mid-bucket) -> mu = 2/h / 2 = 1/h.
	if mu[0] != 0 || mu[1] != 1 {
		t.Fatalf("mu = %v, want [0 1]", mu)
	}
}

// Property: DemandAt is always non-negative and zero outside the lifetime.
func TestQuickDemandAtInvariants(t *testing.T) {
	f := func(seed uint64, probe uint32) bool {
		cfg := DefaultChurnConfig()
		cfg.Horizon = 2 * time.Hour
		cfg.InitialVMs = 5
		cfg.ArrivalPerHour = 20
		set, err := GenerateChurn(cfg, seed)
		if err != nil {
			return false
		}
		t0 := time.Duration(probe) % (3 * time.Hour)
		for _, vm := range set.VMs {
			d := vm.DemandAt(t0)
			if d < 0 {
				return false
			}
			if !vm.Alive(t0) && d != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerate1000VMs24h(b *testing.B) {
	cfg := DefaultGenConfig()
	cfg.NumVMs = 1000
	cfg.Horizon = 24 * time.Hour
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTotalDemandAt(b *testing.B) {
	cfg := smallGenConfig()
	set, err := Generate(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += set.TotalDemandAt(time.Duration(i%12) * time.Hour)
	}
	_ = sink
}

// Synthesize validates each VM where it is built and reports the lowest-index
// invalid VM at every GOMAXPROCS, whatever shard the workers finish first.
func TestSynthesizeReportsLowestInvalidVM(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, bad := range [][]int{{37, 80}, {99}, {0, 1}, {}} {
			set, err := Synthesize(100, 4, func(i int, demand []float64) *VM {
				for k := range demand {
					demand[k] = float64(i + k)
				}
				vm := &VM{ID: i, End: time.Hour, Epoch: time.Minute, Demand: demand}
				for _, b := range bad {
					if i == b {
						demand[2] = math.NaN()
					}
				}
				return vm
			})
			if len(bad) == 0 {
				if err != nil || set == nil || !set.checked || len(set.VMs) != 100 {
					t.Fatalf("GOMAXPROCS %d: valid VMs gave set %v, error %v", procs, set, err)
				}
				continue
			}
			want := fmt.Sprintf("trace: VM %d: bad demand sample 2", bad[0])
			if err == nil || !strings.Contains(err.Error(), want) || set != nil {
				t.Fatalf("GOMAXPROCS %d, invalid VMs %v: set %v, error %v, want %q", procs, bad, set, err, want)
			}
		}
	}
}

// Every constructor checks its Set where it builds it and marks it, so
// Validate returns at once, and a Set built by hand is not marked and is
// scanned on every call.
func TestConstructorsReturnCheckedSets(t *testing.T) {
	gen, err := Generate(smallGenConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := GenerateChurn(DefaultChurnConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	fsys := fstest.MapFS{"day1/vm_a": {Data: []byte("30\n40\n")}, "day2/vm_a": {Data: []byte("50\n")}}
	day1, err := ReadPlanetLabDir(fsys, "day1", 2400)
	if err != nil {
		t.Fatal(err)
	}
	day2, err := ReadPlanetLabDir(fsys, "day2", 2400)
	if err != nil {
		t.Fatal(err)
	}
	days, err := ConcatDays(day1, day2)
	if err != nil {
		t.Fatal(err)
	}
	hand := &Set{RefCapacityMHz: 2400, VMs: []*VM{
		{ID: 0, End: time.Hour, Epoch: time.Minute, Demand: []float64{1, 2}},
		{ID: 1, End: time.Hour, Epoch: time.Minute, Demand: []float64{3, 4}},
	}}
	for _, c := range []struct {
		name    string
		set     *Set
		checked bool
	}{
		{"Generate", gen, true},
		{"GenerateChurn", churn, true},
		{"ReadPlanetLabDir", day1, true},
		{"ConcatDays", days, true},
		{"by hand", hand, false},
	} {
		if c.set.checked != c.checked {
			t.Errorf("%s: checked = %v, want %v", c.name, c.set.checked, c.checked)
		}
		if err := c.set.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}

	// A hand-built Set is scanned on every call: Validate never marks it.
	hand.VMs[1].Demand[1] = math.NaN()
	for call := 1; call <= 3; call++ {
		if err := hand.Validate(); err == nil || !strings.Contains(err.Error(), "VM 1") {
			t.Fatalf("call %d: hand-built Set with a NaN sample: error %v", call, err)
		}
	}
	if hand.checked {
		t.Fatal("Validate marked a hand-built Set")
	}
}

// inSetOrder is the test's own statement of a Set's order: strictly rising
// (Start, ID), so no ID repeats.
func inSetOrder(t *testing.T, name string, set *Set) {
	t.Helper()
	seen := map[int]bool{}
	for i, vm := range set.VMs {
		if seen[vm.ID] {
			t.Fatalf("%s: VM ID %d repeats", name, vm.ID)
		}
		seen[vm.ID] = true
		if i == 0 {
			continue
		}
		prev := set.VMs[i-1]
		if vm.Start < prev.Start || vm.Start == prev.Start && vm.ID < prev.ID {
			t.Fatalf("%s: VM %d (start %v) follows VM %d (start %v)", name, vm.ID, vm.Start, prev.ID, prev.Start)
		}
	}
}

func TestGenerateEmitsSetOrder(t *testing.T) {
	set, err := Generate(smallGenConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	inSetOrder(t, "Generate", set)
}

// The churn day starts VMs at t = 0 and after it, so its order has both
// keys to get right.
func TestGenerateChurnEmitsSetOrder(t *testing.T) {
	set, err := GenerateChurn(DefaultChurnConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if set.VMs[len(set.VMs)-1].Start == 0 {
		t.Fatal("test setup: no VM arrives after t = 0")
	}
	inSetOrder(t, "GenerateChurn", set)
}

// Synthesize accepts VMs its callback builds in (Start, ID) order and
// refuses a callback's VMs out of that order or with a repeated ID.
func TestSynthesizeChecksSetOrder(t *testing.T) {
	build := func(start func(i int) time.Duration, id func(i int) int) (*Set, error) {
		return Synthesize(40, 1, func(i int, demand []float64) *VM {
			demand[0] = 100
			return &VM{ID: id(i), Start: start(i), End: 2 * time.Hour, Demand: demand}
		})
	}
	rising := func(i int) time.Duration { return time.Duration(i/3) * time.Minute }
	same := func(i int) int { return i }
	set, err := build(rising, same)
	if err != nil {
		t.Fatal(err)
	}
	inSetOrder(t, "Synthesize", set)
	for _, c := range []struct {
		name  string
		start func(int) time.Duration
		id    func(int) int
		want  string
	}{
		{"falling start", func(i int) time.Duration { return time.Duration(40-i) * time.Minute }, same, "out of (Start, ID) order"},
		{"falling ID", rising, func(i int) int { return 40 - i }, "out of (Start, ID) order"},
		{"repeated ID", rising, func(i int) int { return i % 3 }, "VM ID 0 repeats"},
	} {
		if set, err := build(c.start, c.id); err == nil || !strings.Contains(err.Error(), c.want) || set != nil {
			t.Errorf("%s: set %v, error %v, want %q", c.name, set, err, c.want)
		}
	}
}

// The files' names sort otherwise than they were written; the IDs follow
// the sorted names.
func TestReadPlanetLabDirEmitsSetOrder(t *testing.T) {
	fsys := fstest.MapFS{}
	for _, name := range []string{"vm_c", "vm_a", "vm_b", "vm_10", "vm_2"} {
		fsys["day/"+name] = &fstest.MapFile{Data: []byte("30\n40\n")}
	}
	set, err := ReadPlanetLabDir(fsys, "day", 2400)
	if err != nil {
		t.Fatal(err)
	}
	inSetOrder(t, "ReadPlanetLabDir", set)
}

func TestConcatDaysEmitsSetOrder(t *testing.T) {
	vm := func(id int) *VM {
		return &VM{ID: id, End: PlanetLabEpoch, Epoch: PlanetLabEpoch, Demand: []float64{1}}
	}
	day1 := &Set{RefCapacityMHz: 2400, VMs: []*VM{vm(0), vm(1), vm(2)}}
	day2 := &Set{RefCapacityMHz: 2400, VMs: []*VM{vm(0), vm(1)}}
	set, err := ConcatDays(day1, day2)
	if err != nil {
		t.Fatal(err)
	}
	inSetOrder(t, "ConcatDays", set)
}

// A hand-built Set out of (Start, ID) order, or with an ID twice, fails
// Validate, whether the repeat shares its twin's Start or not.
func TestValidateRejectsSetOrder(t *testing.T) {
	vm := func(id int, start time.Duration) *VM {
		return &VM{ID: id, Start: start, End: 2 * time.Hour, Demand: []float64{1}}
	}
	for _, c := range []struct {
		name string
		vms  []*VM
		want string
	}{
		{"falling start", []*VM{vm(0, time.Hour), vm(1, 0)}, "VM 1 (start 0s) follows VM 0 (start 1h0m0s)"},
		{"falling ID", []*VM{vm(1, 0), vm(0, 0)}, "VM 0 (start 0s) follows VM 1"},
		{"same ID and start", []*VM{vm(0, 0), vm(0, 0)}, "out of (Start, ID) order"},
		{"ID again later", []*VM{vm(0, 0), vm(5, 0), vm(3, time.Hour), vm(5, 2*time.Hour)}, "VM ID 5 repeats"},
		{"first ID again", []*VM{vm(2, 0), vm(3, 0), vm(2, time.Hour)}, "VM ID 2 repeats"},
	} {
		set := &Set{RefCapacityMHz: 2400, VMs: c.vms}
		if err := set.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
	ok := &Set{RefCapacityMHz: 2400, VMs: []*VM{vm(3, 0), vm(7, 0), vm(1, time.Hour), vm(4, time.Hour)}}
	if err := ok.Validate(); err != nil {
		t.Errorf("a Set in (Start, ID) order: %v", err)
	}
}
