package trace

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/fstest"
	"time"
)

func TestReadPlanetLabFile(t *testing.T) {
	in := "10\n25\n\n0\n100\n"
	vm, err := ReadPlanetLabFile(strings.NewReader(in), 7, 2400)
	if err != nil {
		t.Fatal(err)
	}
	if vm.ID != 7 {
		t.Fatalf("id = %d", vm.ID)
	}
	if len(vm.Demand) != 4 {
		t.Fatalf("samples = %d, want 4 (blank line skipped)", len(vm.Demand))
	}
	want := []float64{240, 600, 0, 2400}
	for i, w := range want {
		if vm.Demand[i] != w {
			t.Fatalf("sample %d = %v, want %v", i, vm.Demand[i], w)
		}
	}
	if vm.Epoch != PlanetLabEpoch {
		t.Fatalf("epoch = %v", vm.Epoch)
	}
	if vm.End != 4*PlanetLabEpoch {
		t.Fatalf("end = %v", vm.End)
	}
	// The step function maps correctly onto the timeline.
	if got := vm.DemandAt(6 * time.Minute); got != 600 {
		t.Fatalf("DemandAt(6m) = %v, want 600", got)
	}
}

func TestReadPlanetLabFileRejectsGarbage(t *testing.T) {
	cases := []string{
		"",        // no samples
		"abc\n",   // not an integer
		"-5\n",    // negative
		"101\n",   // above 100
		"10.5\n",  // float
		"10 20\n", // two values per line
	}
	for i, c := range cases {
		if _, err := ReadPlanetLabFile(strings.NewReader(c), 0, 2400); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := ReadPlanetLabFile(strings.NewReader("5\n"), 0, 0); err == nil {
		t.Error("zero reference capacity accepted")
	}
}

func TestReadPlanetLabDir(t *testing.T) {
	fsys := fstest.MapFS{
		"day1/vm_b":    {Data: []byte("10\n20\n")},
		"day1/vm_a":    {Data: []byte("30\n40\n")},
		"day1/.hidden": {Data: []byte("99\n")},
		"day1/sub/x":   {Data: []byte("1\n")}, // nested: the subdir itself is skipped
	}
	set, err := ReadPlanetLabDir(fsys, "day1", 2400)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.VMs) != 2 {
		t.Fatalf("VMs = %d, want 2 (hidden and dirs skipped)", len(set.VMs))
	}
	// Sorted by name: vm_a first gets ID 0.
	if set.VMs[0].Demand[0] != 720 { // 30% of 2400
		t.Fatalf("vm_a sample = %v, want 720", set.VMs[0].Demand[0])
	}
	if set.VMs[1].Demand[0] != 240 {
		t.Fatalf("vm_b sample = %v, want 240", set.VMs[1].Demand[0])
	}
	if set.RefCapacityMHz != 2400 {
		t.Fatalf("ref capacity = %v", set.RefCapacityMHz)
	}
}

func TestReadPlanetLabDirErrors(t *testing.T) {
	fsys := fstest.MapFS{
		"empty/.keep": {Data: []byte("")},
		"bad/vm":      {Data: []byte("oops\n")},
	}
	if _, err := ReadPlanetLabDir(fsys, "missing", 2400); err == nil {
		t.Error("missing dir accepted")
	}
	if _, err := ReadPlanetLabDir(fsys, "empty", 2400); err == nil {
		t.Error("empty dir accepted")
	}
	if _, err := ReadPlanetLabDir(fsys, "bad", 2400); err == nil {
		t.Error("corrupt file accepted")
	}
	// 0% of an infinite reference capacity is a NaN sample, which the
	// reader's check of each VM rejects.
	if _, err := ReadPlanetLabDir(fstest.MapFS{"day/vm": {Data: []byte("0\n")}}, "day", math.Inf(1)); err == nil || !strings.Contains(err.Error(), "bad demand sample") {
		t.Errorf("infinite reference capacity: error %v", err)
	}
}

// A loaded PlanetLab-format set must feed the standard figure pipelines.
func TestPlanetLabSetDrivesHistograms(t *testing.T) {
	fsys := fstest.MapFS{}
	for i := 0; i < 20; i++ {
		name := "d/vm" + string(rune('a'+i))
		body := strings.Repeat("5\n", 50) + strings.Repeat("15\n", 10)
		fsys[name] = &fstest.MapFile{Data: []byte(body)}
	}
	set, err := ReadPlanetLabDir(fsys, "d", 2400)
	if err != nil {
		t.Fatal(err)
	}
	h := set.AvgUtilHistogram(20)
	if h.Total() != 20 {
		t.Fatalf("histogram total = %d", h.Total())
	}
	if got := set.AliveAt(0); got != 20 {
		t.Fatalf("alive = %d", got)
	}
	if set.TotalDemandAt(0) != 20*0.05*2400 {
		t.Fatalf("total demand = %v", set.TotalDemandAt(0))
	}
}

// FuzzReadPlanetLabFile: arbitrary input never panics; accepted files yield
// well-formed VMs.
func FuzzReadPlanetLabFile(f *testing.F) {
	f.Add("10\n20\n30\n")
	f.Add("")
	f.Add("101\n")
	f.Add("0\n\n\n100\n")
	f.Fuzz(func(t *testing.T, input string) {
		vm, err := ReadPlanetLabFile(strings.NewReader(input), 1, 2400)
		if err != nil {
			return
		}
		if len(vm.Demand) == 0 {
			t.Fatal("accepted VM with no samples")
		}
		for _, d := range vm.Demand {
			if d < 0 || d > 2400 {
				t.Fatalf("demand %v out of range", d)
			}
		}
		if vm.End != time.Duration(len(vm.Demand))*PlanetLabEpoch {
			t.Fatal("End inconsistent with sample count")
		}
	})
}

func TestConcatDays(t *testing.T) {
	vm := func(demand ...float64) *VM {
		return &VM{End: time.Duration(len(demand)) * PlanetLabEpoch, Epoch: PlanetLabEpoch, Demand: demand}
	}
	day1 := &Set{RefCapacityMHz: 2400, VMs: []*VM{vm(100, 200), vm(7), vm(10, 20)}}
	day2 := &Set{RefCapacityMHz: 2400, VMs: []*VM{vm(300, 400, 500), vm(1, 2)}}
	got, err := ConcatDays(day1, day2)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]float64{
		{100, 200, 300, 400, 500}, // both days in full
		{7, 0, 1, 2},              // paused after a short first file, ends with a short last one
		{10, 20},                  // missing from day 2, so it ends with day 1
	} {
		vm := got.VMs[i]
		if !slices.Equal(vm.Demand, want) {
			t.Errorf("VM %d samples = %v, want %v", i, vm.Demand, want)
		}
		if vm.ID != i || vm.Start != 0 || vm.End != time.Duration(len(want))*PlanetLabEpoch {
			t.Errorf("VM %d = ID %d on [%v, %v), want [0, %v)", i, vm.ID, vm.Start, vm.End, time.Duration(len(want))*PlanetLabEpoch)
		}
	}
	if len(got.VMs) != 3 {
		t.Fatalf("VMs = %d, want 3", len(got.VMs))
	}
	// Demand lookups hit the right day.
	if got.VMs[0].DemandAt(2*PlanetLabEpoch) != 300 {
		t.Fatalf("day-2 lookup = %v", got.VMs[0].DemandAt(2*PlanetLabEpoch))
	}
}

// One day chained alone is that day, VM for VM: each VM ends with its file,
// as ReadPlanetLabDir ends it.
func TestConcatOneDay(t *testing.T) {
	day, err := ReadPlanetLabDir(fstest.MapFS{
		"a": {Data: []byte("10\n20\n30\n")},
		"b": {Data: []byte("5\n")},
		"c": {Data: []byte("40\n50\n")},
	}, ".", 2400)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ConcatDays(day)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.VMs) != len(day.VMs) {
		t.Fatalf("VMs = %d, want %d", len(got.VMs), len(day.VMs))
	}
	for i, want := range day.VMs {
		if !reflect.DeepEqual(got.VMs[i], want) {
			t.Errorf("VM %d = %+v, want %+v", i, got.VMs[i], want)
		}
	}
}

func TestConcatDaysErrors(t *testing.T) {
	if _, err := ConcatDays(); err == nil {
		t.Error("no days accepted")
	}
	a := &Set{RefCapacityMHz: 2400, VMs: []*VM{{Epoch: PlanetLabEpoch, End: PlanetLabEpoch, Demand: []float64{1}}}}
	b := &Set{RefCapacityMHz: 8000, VMs: []*VM{{Epoch: PlanetLabEpoch, End: PlanetLabEpoch, Demand: []float64{1}}}}
	if _, err := ConcatDays(a, b); err == nil {
		t.Error("mismatched reference capacity accepted")
	}
	c := &Set{RefCapacityMHz: 2400, VMs: []*VM{{Epoch: time.Minute, End: time.Minute, Demand: []float64{1}}}}
	if _, err := ConcatDays(a, c); err == nil {
		t.Error("mismatched epoch accepted")
	}
	// A day built by hand is not checked; ConcatDays checks what it copies.
	nan := &Set{RefCapacityMHz: 2400, VMs: []*VM{{Epoch: PlanetLabEpoch, End: PlanetLabEpoch, Demand: []float64{math.NaN()}}}}
	if _, err := ConcatDays(a, nan); err == nil || !strings.Contains(err.Error(), "bad demand sample") {
		t.Errorf("day with a NaN sample: error %v", err)
	}
}
