package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/trace"
)

// The demand-kernel scalability study is deliberately outside the experiment
// registry: it measures the simulator, not the paper. Each fleet size runs
// the same ecoCloud scenario twice — demand kernel on, then off — checks that
// the two runs are bit-identical (the kernel's contract), and records the
// wall-clock ratio. Results land in BENCH_demand_kernel.json under -out.
//
// Wall-clock timing is inherently nondeterministic; that is fine here because
// the timings are reporting-only and never feed back into simulation state.
// To steady them, one untimed run warms the process up first, and each cell
// is the fastest of demandBenchRuns fresh runs, cached and naive taking
// turns; every run of a cell must equal its first.

// demandBenchSizes is the 400 -> 4,000 server sweep from the issue. The
// VM count scales with the fleet (15 VMs per server, the paper's ratio).
var demandBenchSizes = []int{400, 1000, 2000, 4000}

// demandBenchRuns is the number of timed runs per cell.
const demandBenchRuns = 3

type demandBenchRow struct {
	Servers       int     `json:"servers"`
	VMs           int     `json:"vms"`
	HorizonHours  float64 `json:"horizon_hours"`
	NaiveSeconds  float64 `json:"naive_s"`
	CachedSeconds float64 `json:"cached_s"`
	Speedup       float64 `json:"speedup"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	CacheInvals   uint64  `json:"cache_invalidations"`
	HitRate       float64 `json:"hit_rate"`
	EnergyKWh     float64 `json:"energy_kwh"`
}

type demandBenchReport struct {
	Seed    uint64           `json:"seed"`
	Results []demandBenchRow `json:"results"`
}

func demandBenchConfig(servers int, seed uint64, disable bool) (cluster.RunConfig, cluster.Policy, error) {
	gen := trace.DefaultGenConfig()
	gen.NumVMs = 15 * servers
	gen.Horizon = time.Hour
	ws, err := trace.Generate(gen, seed)
	if err != nil {
		return cluster.RunConfig{}, nil, err
	}
	pol, err := ecocloud.New(ecocloud.DefaultConfig(), 2)
	if err != nil {
		return cluster.RunConfig{}, nil, err
	}
	return cluster.RunConfig{
		Specs:              dc.StandardFleet(servers),
		Workload:           ws,
		Horizon:            gen.Horizon,
		ControlInterval:    5 * time.Minute,
		SampleInterval:     30 * time.Minute,
		PowerModel:         dc.DefaultPowerModel(),
		DisableDemandCache: disable,
	}, pol, nil
}

// timeDemandRun runs a fresh scenario of the given size after a garbage
// collection, so no earlier run's garbage is collected on its time, and
// returns its result and wall time in seconds.
func timeDemandRun(servers int, seed uint64, disable bool) (*cluster.Result, float64, error) {
	cfg, pol, err := demandBenchConfig(servers, seed, disable)
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	start := time.Now()
	res, err := cluster.Run(cfg, pol)
	return res, time.Since(start).Seconds(), err
}

func runDemandBench(outDir string, seed uint64) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if _, _, err := timeDemandRun(demandBenchSizes[0], seed, false); err != nil {
		return err
	}
	report := demandBenchReport{Seed: seed}
	for _, servers := range demandBenchSizes {
		var timings [2]float64 // cached, naive
		var results [2]*cluster.Result
		for run := 0; run < demandBenchRuns; run++ {
			for i, disable := range []bool{false, true} {
				res, secs, err := timeDemandRun(servers, seed, disable)
				if err != nil {
					return err
				}
				if run == 0 {
					timings[i], results[i] = secs, res
					continue
				}
				if err := cluster.SameResult(results[i], res); err != nil {
					return fmt.Errorf("demand-bench: %d servers: run %d differs from run 1: %w", servers, run+1, err)
				}
				timings[i] = min(timings[i], secs)
			}
		}
		if err := cluster.SameResult(results[0], results[1]); err != nil {
			return fmt.Errorf("demand-bench: %d servers: cached and naive runs diverge: %w", servers, err)
		}
		cache := results[0].DemandCache
		row := demandBenchRow{
			Servers:       servers,
			VMs:           15 * servers,
			HorizonHours:  time.Hour.Hours(),
			NaiveSeconds:  timings[1],
			CachedSeconds: timings[0],
			Speedup:       timings[1] / timings[0],
			CacheHits:     cache.Hits,
			CacheMisses:   cache.Misses,
			CacheInvals:   cache.Invalidations,
			EnergyKWh:     results[0].EnergyKWh,
		}
		if total := cache.Hits + cache.Misses; total > 0 {
			row.HitRate = float64(cache.Hits) / float64(total)
		}
		report.Results = append(report.Results, row)
		fmt.Printf("== demand-bench %4d servers: naive %.3fs cached %.3fs speedup %.2fx hit-rate %.4f\n",
			servers, row.NaiveSeconds, row.CachedSeconds, row.Speedup, row.HitRate)
	}
	path := filepath.Join(outDir, "BENCH_demand_kernel.json")
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
