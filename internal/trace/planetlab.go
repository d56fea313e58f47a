package trace

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"path"
	"sort"
	"strconv"
	"strings"
	"time"
)

// This file reads the de-facto standard distribution format of the
// CoMon/PlanetLab workload the paper uses (the same format popularized by
// the CloudSim project's planetlab data): one file per VM, one integer CPU
// utilization percentage (0–100) per line, sampled every 5 minutes. With
// the real archive on disk, the paper's experiments run on the paper's
// actual workload instead of the synthetic substitute.

// PlanetLabEpoch is the archive's sampling period.
const PlanetLabEpoch = 5 * time.Minute

// ReadPlanetLabFile parses one VM's utilization file: one integer percent
// per line (blank lines ignored). Values are converted to MHz against
// refCapacityMHz. The VM runs from t=0 for len(samples) epochs.
func ReadPlanetLabFile(r io.Reader, id int, refCapacityMHz float64) (*VM, error) {
	if refCapacityMHz <= 0 {
		return nil, fmt.Errorf("trace: planetlab reference capacity %v", refCapacityMHz)
	}
	sc := bufio.NewScanner(r)
	var demand []float64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		v, err := strconv.Atoi(text)
		if err != nil {
			return nil, fmt.Errorf("trace: planetlab line %d: %v", line, err)
		}
		if v < 0 || v > 100 {
			return nil, fmt.Errorf("trace: planetlab line %d: utilization %d outside [0,100]", line, v)
		}
		demand = append(demand, float64(v)/100*refCapacityMHz)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: planetlab read: %v", err)
	}
	if len(demand) == 0 {
		return nil, fmt.Errorf("trace: planetlab file has no samples")
	}
	return &VM{
		ID:     id,
		Start:  0,
		End:    time.Duration(len(demand)) * PlanetLabEpoch,
		Epoch:  PlanetLabEpoch,
		Demand: demand,
	}, nil
}

// ReadPlanetLabDir loads every regular file of dir (sorted by name, so VM
// IDs are stable) as one VM each. Hidden files are skipped. The paper's
// archive is one directory per day with thousands of VM files.
func ReadPlanetLabDir(fsys fs.FS, dir string, refCapacityMHz float64) (*Set, error) {
	entries, err := fs.ReadDir(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("trace: planetlab dir: %v", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("trace: planetlab dir %q has no trace files", dir)
	}
	set := &Set{RefCapacityMHz: refCapacityMHz}
	for i, name := range names {
		f, err := fsys.Open(path.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("trace: planetlab %s: %v", name, err)
		}
		vm, err := ReadPlanetLabFile(f, i, refCapacityMHz)
		f.Close()
		if err == nil {
			err = vm.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("trace: planetlab %s: %v", name, err)
		}
		set.VMs = append(set.VMs, vm)
	}
	set.checked = true
	return set, nil
}

// ConcatDays chains per-day trace sets into one multi-day workload, the way
// the CoMon archive is distributed (one directory per day) and the way the
// paper uses it (two consecutive days). Each VM keeps one identity across
// days, matched by position after name-sorted loading: day k's VM i
// continues day k-1's VM i. Day k starts when day k-1's longest file ends.
// A VM pauses at zero demand through the gaps before its last sample (a
// short file, or days it is missing from) and ends with its last file, as
// ReadPlanetLabDir ends it with its only one. Days may have different VM
// counts (nodes come and go). All sets must share the reference capacity.
func ConcatDays(days ...*Set) (*Set, error) {
	if len(days) == 0 {
		return nil, fmt.Errorf("trace: ConcatDays with no days")
	}
	ref := days[0].RefCapacityMHz
	maxVMs := 0
	for i, d := range days {
		//ecolint:allow float-eq — days must share a bit-identical reference capacity to be concatenated
		if d.RefCapacityMHz != ref {
			return nil, fmt.Errorf("trace: day %d reference capacity %v != %v", i, d.RefCapacityMHz, ref)
		}
		if len(d.VMs) > maxVMs {
			maxVMs = len(d.VMs)
		}
	}
	out := &Set{RefCapacityMHz: ref, VMs: make([]*VM, maxVMs)}
	dayLens := make([]time.Duration, len(days))
	for k, d := range days {
		for _, vm := range d.VMs {
			if vm.End > dayLens[k] {
				dayLens[k] = vm.End
			}
		}
	}
	// Build each VM's concatenated samples, padding the gaps before each
	// day's file with zeros.
	for i := 0; i < maxVMs; i++ {
		var demand []float64
		epoch := PlanetLabEpoch
		dayStart := 0 // day k's first sample index
		for k, d := range days {
			if i < len(d.VMs) {
				vm := d.VMs[i]
				if vm.Epoch != epoch {
					return nil, fmt.Errorf("trace: day %d VM %d epoch %v != %v", k, i, vm.Epoch, epoch)
				}
				for len(demand) < dayStart {
					demand = append(demand, 0)
				}
				demand = append(demand, vm.Demand...)
			}
			dayStart += int(dayLens[k] / epoch)
		}
		vm := &VM{
			ID:     i,
			Start:  0,
			End:    time.Duration(len(demand)) * epoch,
			Epoch:  epoch,
			Demand: demand,
		}
		if err := vm.Validate(); err != nil {
			return nil, err
		}
		out.VMs[i] = vm
	}
	out.checked = true
	return out, nil
}
