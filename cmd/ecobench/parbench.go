package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
)

// The parallel-engine scalability study lives next to the demand-kernel one
// and for the same reason: it measures the simulator, not the paper, and
// wall-clock timing is banned from internal packages by the determinism
// contract. Each fleet size runs the parscale steady-band cell once per
// worker count, checks every pooled run bit-identical to the sequential
// baseline, and records the wall-clock speedup curve. Results land in
// BENCH_parallel_scale.json under -out; gomaxprocs and num_cpu are recorded
// alongside so a reader knows whether a curve was measured on real cores or
// on an oversubscribed box (num_cpu < gomaxprocs), where pooled speedup
// cannot exceed ~1x no matter how good the engine is.

// parBenchSizes extends the footnote-1 sweep into the territory where the
// control round dominates — the top size is 100k servers hosting 1M VMs.
// parBenchWorkers is the speedup curve's x axis; parBenchWorkersFor narrows
// it for the two big fleets, where five full runs apiece would dominate CI
// wall-clock without adding information (0 = baseline, 2 = the smallest real
// fan-out, 8 = the saturation point).
var (
	parBenchSizes   = []int{2000, 10_000, 50_000, 100_000}
	parBenchWorkers = []int{0, 1, 2, 4, 8}
)

func parBenchWorkersFor(servers int) []int {
	if servers >= 50_000 {
		return []int{0, 2, 8}
	}
	return parBenchWorkers
}

type parBenchRow struct {
	Servers   int     `json:"servers"`
	VMs       int     `json:"vms"`
	Workers   int     `json:"workers"`
	Seconds   float64 `json:"wall_s"`
	Speedup   float64 `json:"speedup_vs_sequential"`
	Identical bool    `json:"bit_identical_to_sequential"`
	EnergyKWh float64 `json:"energy_kwh"`
}

type parBenchReport struct {
	Seed       uint64 `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// NumCPU is runtime.NumCPU() — the cores the OS actually grants. When it
	// is below GOMAXPROCS the workers time-slice one core and the speedup
	// column measures scheduling overhead, not parallelism; the report says
	// so explicitly rather than letting a flat curve masquerade as an engine
	// regression.
	NumCPU         int           `json:"num_cpu"`
	Oversubscribed bool          `json:"oversubscribed"`
	Results        []parBenchRow `json:"results"`
}

// parBenchFloor is the regression gate the CI bench job applies to the
// freshly measured report (see -par-floor): on a machine with real cores,
// the best pooled speedup at the largest fleet must not fall below the
// recorded floor.
type parBenchFloor struct {
	LargestFleetMinPooledSpeedup float64 `json:"largest_fleet_min_pooled_speedup"`
}

func runParBench(outDir string, seed uint64, floorPath string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		return fmt.Errorf("par-bench: GOMAXPROCS=%d cannot exercise the pooled path; rerun with GOMAXPROCS>=2", procs)
	}
	opts := experiments.DefaultParScaleOptions()
	opts.Seed = seed
	opts.Horizon = time.Hour
	report := parBenchReport{
		Seed:           seed,
		GOMAXPROCS:     procs,
		NumCPU:         runtime.NumCPU(),
		Oversubscribed: runtime.NumCPU() < procs,
	}
	for _, servers := range parBenchSizes {
		var baseline *cluster.Result
		var baselineSec float64
		for _, workers := range parBenchWorkersFor(servers) {
			cfg, pol, err := experiments.ParScaleCell(opts, servers, workers)
			if err != nil {
				return err
			}
			start := time.Now()
			res, err := cluster.Run(cfg, pol)
			if err != nil {
				return fmt.Errorf("par-bench: %d servers, %d workers: %w", servers, workers, err)
			}
			sec := time.Since(start).Seconds()
			row := parBenchRow{
				Servers:   servers,
				VMs:       servers * opts.VMsPerServer,
				Workers:   workers,
				Seconds:   sec,
				EnergyKWh: res.EnergyKWh,
			}
			if baseline == nil {
				baseline, baselineSec = res, sec
				row.Speedup, row.Identical = 1, true
			} else {
				if err := cluster.SameResult(baseline, res); err != nil {
					return fmt.Errorf("par-bench: %d servers: Workers=%d diverges from sequential: %w",
						servers, workers, err)
				}
				row.Speedup, row.Identical = baselineSec/sec, true
			}
			report.Results = append(report.Results, row)
			fmt.Printf("== par-bench %6d servers workers=%d: %.3fs speedup %.2fx bit-identical\n",
				servers, workers, row.Seconds, row.Speedup)
		}
	}
	path := filepath.Join(outDir, "BENCH_parallel_scale.json")
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if floorPath != "" {
		return checkParBenchFloor(report, floorPath)
	}
	return nil
}

// checkParBenchFloor fails the bench when the best pooled speedup at the
// largest fleet regresses below the recorded floor. The gate only bites on
// machines with real parallelism: an oversubscribed box (num_cpu <
// gomaxprocs) cannot distinguish an engine regression from time-slicing, so
// the check reports itself skipped instead of failing noise.
func checkParBenchFloor(report parBenchReport, floorPath string) error {
	buf, err := os.ReadFile(floorPath)
	if err != nil {
		return fmt.Errorf("par-bench: reading floor: %w", err)
	}
	var floor parBenchFloor
	if err := json.Unmarshal(buf, &floor); err != nil {
		return fmt.Errorf("par-bench: parsing floor %s: %w", floorPath, err)
	}
	if floor.LargestFleetMinPooledSpeedup <= 0 {
		return fmt.Errorf("par-bench: floor %s has no largest_fleet_min_pooled_speedup", floorPath)
	}
	if report.Oversubscribed {
		fmt.Printf("== par-bench floor check SKIPPED: %d worker(s) over %d cpu(s) measures time-slicing, not speedup\n",
			report.GOMAXPROCS, report.NumCPU)
		return nil
	}
	largest, best := 0, 0.0
	for _, row := range report.Results {
		if row.Servers > largest {
			largest, best = row.Servers, 0
		}
		if row.Servers == largest && row.Workers > 0 && row.Speedup > best {
			best = row.Speedup
		}
	}
	if best < floor.LargestFleetMinPooledSpeedup {
		return fmt.Errorf("par-bench: pooled speedup %.2fx at %d servers is below the recorded floor %.2fx",
			best, largest, floor.LargestFleetMinPooledSpeedup)
	}
	fmt.Printf("== par-bench floor check OK: %.2fx at %d servers (floor %.2fx)\n",
		best, largest, floor.LargestFleetMinPooledSpeedup)
	return nil
}
