package dc

import (
	"math"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/trace"
)

// fuzzGrid is a sampling grid several fuzz VMs share, the way every VM of a
// generated trace set shares one Start and Epoch.
type fuzzGrid struct{ start, epoch time.Duration }

// fuzzVM synthesizes a VM with a random lifetime and step function: about
// half on the shared grid (random sample count and End), the rest mostly
// epoch-sampled traces with their own Start and Epoch, plus some
// constant-demand VMs (including the Epoch == 0 form the churn workloads
// use).
func fuzzVM(src *rng.Source, id int, horizon time.Duration, grid fuzzGrid) *trace.VM {
	if src.Bernoulli(0.5) {
		vm := &trace.VM{ID: id, Start: grid.start, Epoch: grid.epoch}
		vm.End = grid.start + time.Duration(1+src.Intn(int(horizon-grid.start)))
		vm.Demand = make([]float64, 1+src.Intn(20))
		for i := range vm.Demand {
			vm.Demand[i] = src.Float64() * 2400
		}
		return vm
	}
	start := time.Duration(src.Intn(int(horizon / 2)))
	end := start + time.Duration(1+src.Intn(int(horizon-start)))
	vm := &trace.VM{ID: id, Start: start, End: end}
	if src.Bernoulli(0.3) {
		// Constant demand; half with the degenerate zero epoch.
		if src.Bernoulli(0.5) {
			vm.Epoch = end - start
		}
		vm.Demand = []float64{src.Float64() * 2400}
		return vm
	}
	vm.Epoch = time.Duration(1 + src.Intn(int(30*time.Minute)))
	n := 1 + src.Intn(20)
	vm.Demand = make([]float64, n)
	for i := range vm.Demand {
		vm.Demand[i] = src.Float64() * 2400
	}
	return vm
}

// TestDemandKernelDifferentialFuzz drives random place/remove/migrate/
// activate/hibernate sequences over a small fleet and asserts, at every
// step and at adversarial probe times (epoch boundaries, revisits, jumps
// backwards, walks through a block of epoch sums), that the cached DemandAt
// is bit-identical to the naive recomputation — the kernel's core contract
// — and that each read outside the server's current window counts exactly
// one miss and each read inside it one hit.
func TestDemandKernelDifferentialFuzz(t *testing.T) {
	const horizon = 8 * time.Hour
	for seed := uint64(1); seed <= 8; seed++ {
		src := rng.New(seed)
		d := New(UniformFleet(6, 4, 2000))
		grid := fuzzGrid{
			start: time.Duration(src.Intn(int(time.Hour))),
			epoch: time.Duration(1 + src.Intn(int(30*time.Minute))),
		}
		vms := make([]*trace.VM, 40)
		for i := range vms {
			vms[i] = fuzzVM(src.SplitIndex("vm", i), i, horizon, grid)
		}
		placed := map[int]*Server{}
		fromBlock := 0

		read := func(s *Server, at time.Duration) {
			h := &d.hot
			inWindow := h.kValid[s.ID] && at >= h.kFrom[s.ID] && at < h.kUntil[s.ID]
			if _, ok := h.kBlock[s.ID].entry(at); ok && !inWindow {
				fromBlock++
			}
			before := d.DemandCacheStats()
			want := s.recomputeDemandAt(at)
			if got := s.DemandAt(at); got != want {
				t.Fatalf("seed %d: server %d at %v: cached %v != naive %v", seed, s.ID, at, got, want)
			}
			after := d.DemandCacheStats()
			misses, hits := after.Misses-before.Misses, after.Hits-before.Hits
			if inWindow && (misses != 0 || hits != 1) || !inWindow && (misses != 1 || hits != 0) {
				t.Fatalf("seed %d: server %d at %v (in window %v): %d misses, %d hits", seed, s.ID, at, inWindow, misses, hits)
			}
		}

		probe := func(now time.Duration) {
			times := []time.Duration{
				now,
				time.Duration(src.Intn(int(horizon))),
				now + time.Duration(src.Intn(int(time.Hour))),
			}
			// Hammer one VM's exact epoch boundaries too.
			vm := vms[src.Intn(len(vms))]
			if vm.Epoch > 0 {
				k := src.Intn(len(vm.Demand) + 1)
				times = append(times, vm.Start+time.Duration(k)*vm.Epoch, vm.End)
			}
			// Walk the grid epoch by epoch through and past a block, skip
			// ahead, jump back inside the block and before it, and end
			// inside a block, so the next mutation lands mid-block.
			for _, j := range []time.Duration{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 4, -1, 0, 1, 2} {
				times = append(times, now+j*grid.epoch)
			}
			for _, s := range d.Servers {
				for _, at := range times {
					read(s, at)
					// Second lookup must be a pure cache hit with the same bits.
					read(s, at)
				}
			}
		}

		now := time.Duration(0)
		for step := 0; step < 400; step++ {
			if src.Bernoulli(0.3) {
				now += time.Duration(src.Intn(int(10 * time.Minute)))
			}
			switch src.Intn(5) {
			case 0: // place a random unplaced VM on a random active server
				vm := vms[src.Intn(len(vms))]
				s := d.Servers[src.Intn(len(d.Servers))]
				if placed[vm.ID] != nil || s.State() != Active {
					continue
				}
				if err := d.Place(vm, s); err != nil {
					t.Fatal(err)
				}
				placed[vm.ID] = s
			case 1: // remove a random placed VM
				vm := vms[src.Intn(len(vms))]
				if placed[vm.ID] == nil {
					continue
				}
				if _, err := d.Remove(vm.ID); err != nil {
					t.Fatal(err)
				}
				delete(placed, vm.ID)
			case 2: // migrate
				vm := vms[src.Intn(len(vms))]
				to := d.Servers[src.Intn(len(d.Servers))]
				if placed[vm.ID] == nil || placed[vm.ID] == to || to.State() != Active {
					continue
				}
				if err := d.Migrate(vm.ID, to); err != nil {
					t.Fatal(err)
				}
				placed[vm.ID] = to
			case 3: // activate
				s := d.Servers[src.Intn(len(d.Servers))]
				if s.State() == Active {
					continue
				}
				if err := d.Activate(s, now); err != nil {
					t.Fatal(err)
				}
			case 4: // hibernate an empty active server
				s := d.Servers[src.Intn(len(d.Servers))]
				if s.State() != Active || s.NumVMs() > 0 {
					continue
				}
				if err := d.Hibernate(s); err != nil {
					t.Fatal(err)
				}
			}
			probe(now)
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		st := d.DemandCacheStats()
		if st.Hits == 0 || st.Misses == 0 || st.Invalidations == 0 {
			t.Fatalf("seed %d: degenerate cache traffic %+v", seed, st)
		}
		if fromBlock == 0 {
			t.Fatalf("seed %d: no miss was served from a block", seed)
		}
	}
}

// An appended placement — the VM's ID above every hosted ID — on a server
// whose block covers the read time keeps the block, and every entry holds
// the bits trace.SumEpochs gives the grown set from the block's first
// epoch. The aggregate is still dropped and counted, so the next read
// misses, as it did before the fold.
func TestAppendedPlacementFoldsIntoBlock(t *testing.T) {
	gen := trace.DefaultGenConfig()
	gen.NumVMs, gen.Horizon = 60, 24*time.Hour
	ws, err := trace.Generate(gen, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := New(UniformFleet(1, 8, 2000))
	s := d.Servers[0]
	if err := d.Activate(s, 0); err != nil {
		t.Fatal(err)
	}
	folds := 0
	for i, vm := range ws.VMs {
		// Reads advance one epoch every seven placements, so later
		// placements land inside a block filled epochs before.
		at := time.Duration(i/7)*gen.Epoch + gen.Epoch/3
		_, covered := d.hot.kBlock[s.ID].entry(at)
		inval := d.DemandCacheStats().Invalidations
		if err := d.Place(vm, s); err != nil {
			t.Fatal(err)
		}
		if i > 0 && d.DemandCacheStats().Invalidations != inval+1 {
			t.Fatalf("appending VM %d dropped no valid aggregate", vm.ID)
		}
		b := d.hot.kBlock[s.ID]
		if covered {
			if b.n == 0 {
				t.Fatalf("appending VM %d emptied a block that covered %v", vm.ID, at)
			}
			var want [blockEpochs]float64
			n, from, epoch := trace.SumEpochs(s.vms, b.from, want[:])
			if n != b.n || from != b.from || epoch != b.epoch {
				t.Fatalf("VM %d: block (n %d, from %v, epoch %v), SumEpochs over the grown set (n %d, from %v, epoch %v)", vm.ID, b.n, b.from, b.epoch, n, from, epoch)
			}
			for j := 0; j < n; j++ {
				if math.Float64bits(b.sums[j]) != math.Float64bits(want[j]) {
					t.Fatalf("VM %d: entry %d = %v, SumEpochs over the grown set %v", vm.ID, j, b.sums[j], want[j])
				}
			}
			folds++
		}
		misses := d.DemandCacheStats().Misses
		if got, want := s.DemandAt(at), s.recomputeDemandAt(at); got != want {
			t.Fatalf("VM %d: DemandAt(%v) = %v, recomputation %v", vm.ID, at, got, want)
		}
		if d.DemandCacheStats().Misses != misses+1 {
			t.Fatalf("VM %d: the read after an append did not miss", vm.ID)
		}
	}
	if folds < len(ws.VMs)/2 {
		t.Fatalf("only %d of %d placements folded into a block", folds, len(ws.VMs))
	}
}

// TestDemandKernelFoldFuzz drives random appends — on the shared grid and
// off it (another Start or Epoch, an End inside the block, too few
// samples) — mid-list inserts, removals and migrations over a small fleet,
// reading every server at advancing times. Every read must equal the
// kernel-off recomputation bit for bit, and each mutation must count
// exactly one invalidation on each server it changes whose aggregate was
// valid, and none on any other server.
func TestDemandKernelFoldFuzz(t *testing.T) {
	const epoch = 5 * time.Minute
	folds, emptied := 0, 0
	for seed := uint64(1); seed <= 8; seed++ {
		src := rng.New(seed)
		d := New(UniformFleet(4, 8, 2000))
		for _, s := range d.Servers {
			if err := d.Activate(s, 0); err != nil {
				t.Fatal(err)
			}
		}
		now := time.Duration(0)
		used := map[int]bool{}
		var placed []*trace.VM
		// Appended IDs rise by 10, so a mid-list insert finds a free ID in
		// the gap below a hosted VM.
		nextID := 10
		newVM := func(id int) *trace.VM {
			vm := &trace.VM{ID: id, End: 30 * time.Hour, Epoch: epoch, Demand: make([]float64, 360)}
			for k := range vm.Demand {
				vm.Demand[k] = src.Float64() * 300
			}
			k := int(now / epoch)
			switch src.Intn(24) {
			case 0: // another Start
				vm.Start = time.Duration(1 + src.Intn(int(epoch)))
			case 1: // another Epoch
				vm.Epoch = 2 * epoch
			case 2: // an End before or inside the next blockEpochs epochs
				vm.End = time.Duration(1 + src.Intn(int(now+blockEpochs*epoch)))
			case 3: // its last sample inside (or before) them
				vm.Demand = vm.Demand[:1+src.Intn(k+blockEpochs+1)]
			}
			used[id] = true
			return vm
		}
		host := func(vm *trace.VM) *Server { s, _ := d.HostOf(vm.ID); return s }

		for step := 0; step < 300; step++ {
			if src.Bernoulli(0.2) {
				now += time.Duration(src.Intn(int(2 * epoch)))
			}
			valid := make([]bool, len(d.Servers))
			inval := make([]uint64, len(d.Servers))
			blockN := make([]int, len(d.Servers))
			for i := range d.Servers {
				valid[i], inval[i], blockN[i] = d.hot.kValid[i], d.hot.kInval[i], d.hot.kBlock[i].n
			}
			var changed []*Server
			appended := false
			op := src.Intn(10)
			if len(placed) >= 16 {
				op = 7 // a removal keeps servers small, so a block is often filled
			}
			switch {
			case op < 5: // append: an ID above every hosted one
				vm := newVM(nextID)
				nextID += 10
				s := d.Servers[src.Intn(len(d.Servers))]
				if err := d.Place(vm, s); err != nil {
					t.Fatal(err)
				}
				placed = append(placed, vm)
				changed, appended = []*Server{s}, true
			case op < 7: // mid-list insert below a hosted VM
				if len(placed) == 0 {
					continue
				}
				above := placed[src.Intn(len(placed))]
				id := above.ID - 1 - src.Intn(9)
				if id < 0 || used[id] {
					continue
				}
				vm := newVM(id)
				s := host(above)
				if err := d.Place(vm, s); err != nil {
					t.Fatal(err)
				}
				placed = append(placed, vm)
				changed = []*Server{s}
			case op < 8: // removal
				if len(placed) == 0 {
					continue
				}
				i := src.Intn(len(placed))
				s, err := d.Remove(placed[i].ID)
				if err != nil {
					t.Fatal(err)
				}
				placed = append(placed[:i], placed[i+1:]...)
				changed = []*Server{s}
			default: // migration, an append at the destination when its ID is the highest there
				if len(placed) == 0 {
					continue
				}
				vm := placed[src.Intn(len(placed))]
				from, to := host(vm), d.Servers[src.Intn(len(d.Servers))]
				if to == from {
					continue
				}
				if err := d.Migrate(vm.ID, to); err != nil {
					t.Fatal(err)
				}
				changed = []*Server{from, to}
			}
			for i := range d.Servers {
				want := inval[i]
				for _, s := range changed {
					if s.ID == i && valid[i] {
						want++
					}
				}
				if d.hot.kInval[i] != want {
					t.Fatalf("seed %d step %d: server %d counted %d invalidations, want %d", seed, step, i, d.hot.kInval[i]-inval[i], want-inval[i])
				}
			}
			if s := changed[0]; appended && blockN[s.ID] > 0 {
				if d.hot.kBlock[s.ID].n > 0 {
					folds++
				} else {
					emptied++
				}
			}
			for _, s := range d.Servers {
				for _, at := range []time.Duration{now, now + time.Duration(src.Intn(3))*epoch} {
					if got, want := s.DemandAt(at), s.recomputeDemandAt(at); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d step %d: server %d at %v: cached %v != recomputed %v", seed, step, s.ID, at, got, want)
					}
				}
			}
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	t.Logf("appends onto a filled block: %d folded, %d emptied", folds, emptied)
	if folds == 0 || emptied == 0 {
		t.Fatalf("appends onto a filled block: %d folded, %d emptied; the fuzz needs both", folds, emptied)
	}
}

// TestDemandKernelDisabled pins the toggle: with the cache off, lookups are
// naive recomputations and the hit/miss counters stay frozen.
func TestDemandKernelDisabled(t *testing.T) {
	d := New(UniformFleet(2, 4, 2000))
	s := d.Servers[0]
	if err := d.Activate(s, 0); err != nil {
		t.Fatal(err)
	}
	vm := &trace.VM{ID: 0, End: time.Hour, Epoch: 5 * time.Minute, Demand: []float64{100, 200}}
	if err := d.Place(vm, s); err != nil {
		t.Fatal(err)
	}
	d.SetDemandCache(false)
	before := d.DemandCacheStats()
	for i := 0; i < 5; i++ {
		if got := s.DemandAt(time.Minute); got != 100 {
			t.Fatalf("DemandAt = %v, want 100", got)
		}
	}
	if after := d.DemandCacheStats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("disabled cache still counting: %+v -> %+v", before, after)
	}
	d.SetDemandCache(true)
	if got := s.DemandAt(6 * time.Minute); got != 200 {
		t.Fatalf("re-enabled DemandAt = %v, want 200", got)
	}
	if st := d.DemandCacheStats(); st.Misses == 0 {
		t.Fatal("re-enabled cache never refilled")
	}
}

// TestDemandKernelStatsAndWindows checks hit/miss/invalidation accounting on
// a deterministic scenario: repeated same-epoch lookups hit, an epoch
// boundary misses, and a placement invalidates.
func TestDemandKernelStatsAndWindows(t *testing.T) {
	d := New(UniformFleet(1, 4, 2000))
	s := d.Servers[0]
	if err := d.Activate(s, 0); err != nil {
		t.Fatal(err)
	}
	epoch := 5 * time.Minute
	vmA := &trace.VM{ID: 0, End: time.Hour, Epoch: epoch, Demand: []float64{100, 150, 175}}
	if err := d.Place(vmA, s); err != nil {
		t.Fatal(err)
	}

	s.DemandAt(0) // cold: miss
	s.DemandAt(time.Minute)
	s.DemandAt(4 * time.Minute)
	st := d.DemandCacheStats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("same-epoch stats = %+v, want 1 miss / 2 hits", st)
	}

	s.DemandAt(epoch) // next epoch: miss
	st = d.DemandCacheStats()
	if st.Misses != 2 {
		t.Fatalf("epoch boundary did not miss: %+v", st)
	}

	vmB := &trace.VM{ID: 1, End: time.Hour, Epoch: epoch, Demand: []float64{50}}
	if err := d.Place(vmB, s); err != nil {
		t.Fatal(err)
	}
	st = d.DemandCacheStats()
	if st.Invalidations == 0 {
		t.Fatalf("placement did not invalidate: %+v", st)
	}
	if got := s.DemandAt(epoch); got != 200 {
		t.Fatalf("post-placement demand = %v, want 200", got)
	}
}

// BenchmarkRefill measures the demand kernel's refill layer on the daily
// run's shape: 3,000 generated trace VMs spread over 74 active servers
// (~40 each), every server refilled once per 5-minute epoch of a day. The
// VMs share one sampling grid, so one refill in blockEpochs reads every
// hosted VM and sums the block, and the others install their entry from
// it. One op is the whole day; ns/vm-epoch divides it by the 3,000 × 288
// VM-epochs served.
func BenchmarkRefill(b *testing.B) {
	benchmarkRefill(b, 0)
}

// BenchmarkRefillWithMigrations is BenchmarkRefill with four VMs moved to
// the next server before each epoch's refills: about the daily run's rate
// (1,088 migrations over 288 epochs), so blocks are thrown away before
// their end.
func BenchmarkRefillWithMigrations(b *testing.B) {
	benchmarkRefill(b, 4)
}

// BenchmarkArrivalBurst measures the demand kernel on the daily run's t = 0
// burst: 3,000 generated VMs, all on one sampling grid, placed in ascending
// ID order over a growing set of active StandardFleet(200) servers. Before
// each placement every active server's DemandAt(0) is read, as an
// invitation round reads them, and the VM goes to the first server it fits
// under 90% of capacity, else to the next server woken. Each placement is
// an append, so the read of its host that follows refills from the block.
// One op is the whole burst on a fresh fleet.
func BenchmarkArrivalBurst(b *testing.B) {
	gen := trace.DefaultGenConfig()
	gen.NumVMs = 3000
	gen.Horizon = 24 * time.Hour
	ws, err := trace.Generate(gen, 1)
	if err != nil {
		b.Fatal(err)
	}
	specs := StandardFleet(200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New(specs)
		woken := 0
		for _, vm := range ws.VMs {
			need := vm.DemandAt(0)
			host := -1
			for id := d.NextActive(0); id >= 0; id = d.NextActive(id + 1) {
				s := d.Servers[id]
				if u := s.DemandAt(0); host < 0 && u+need <= 0.9*s.CapacityMHz() {
					host = id
				}
			}
			if host < 0 {
				if err := d.Activate(d.Servers[woken], 0); err != nil {
					b.Fatal(err)
				}
				host, woken = woken, woken+1
			}
			if err := d.Place(vm, d.Servers[host]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchmarkRefill(b *testing.B, movesPerEpoch int) {
	const servers = 74
	gen := trace.DefaultGenConfig()
	gen.NumVMs = 3000
	gen.Horizon = 24 * time.Hour
	ws, err := trace.Generate(gen, 1)
	if err != nil {
		b.Fatal(err)
	}
	d := New(StandardFleet(servers))
	for _, s := range d.Servers {
		if err := d.Activate(s, 0); err != nil {
			b.Fatal(err)
		}
	}
	for i, vm := range ws.VMs {
		if err := d.Place(vm, d.Servers[i%servers]); err != nil {
			b.Fatal(err)
		}
	}
	epochs := int(gen.Horizon / gen.Epoch)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	moved := 0
	for i := 0; i < b.N; i++ {
		for k := 0; k < epochs; k++ {
			for m := 0; m < movesPerEpoch; m++ {
				id := ws.VMs[moved%len(ws.VMs)].ID
				moved++
				host, _ := d.HostOf(id)
				if err := d.Migrate(id, d.Servers[(host.ID+1)%len(d.Servers)]); err != nil {
					b.Fatal(err)
				}
			}
			t := time.Duration(k) * gen.Epoch
			for _, s := range d.Servers {
				sink += s.refill(t)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*epochs*gen.NumVMs), "ns/vm-epoch")
	if sink <= 0 {
		b.Fatal("refills read no demand")
	}
}
