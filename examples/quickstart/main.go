// Quickstart: run ecoCloud on a small data center for one simulated day and
// print the headline numbers. This is the smallest end-to-end use of the
// library: generate a workload, build a fleet, pick the policy, run, read
// the result.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/trace"
)

func main() {
	// 1. A synthetic PlanetLab-like workload: 300 VMs for 24 hours.
	gen := trace.DefaultGenConfig()
	gen.NumVMs = 300
	gen.Horizon = 24 * time.Hour
	workload, err := trace.Generate(gen, 42)
	if err != nil {
		log.Fatal(err)
	}

	// 2. The ecoCloud policy with the paper's parameters (Ta=0.90, p=3,
	//    Tl=0.50, Th=0.95, alpha=beta=0.25).
	policy, err := ecocloud.New(ecocloud.DefaultConfig(), 7)
	if err != nil {
		log.Fatal(err)
	}

	// 3. A 20-server fleet in the paper's mix (thirds of 4/6/8 cores at
	//    2 GHz) and one simulated day.
	result, err := cluster.Run(cluster.RunConfig{
		Specs:           dc.StandardFleet(20),
		Workload:        workload,
		Horizon:         24 * time.Hour,
		ControlInterval: 5 * time.Minute,
		SampleInterval:  30 * time.Minute,
		PowerModel:      dc.DefaultPowerModel(),
	}, policy)
	if err != nil {
		log.Fatal(err)
	}

	// 4. What happened.
	fmt.Printf("quickstart: ecoCloud on 20 servers / 300 VMs for 24h\n\n")
	fmt.Printf("  mean active servers : %.1f of 20\n", result.MeanActiveServers)
	fmt.Printf("  energy              : %.1f kWh (all-on floor would be >= %.1f kWh)\n",
		result.EnergyKWh, 20*dc.DefaultPowerModel().PeakW*dc.DefaultPowerModel().IdleFraction*24/1000)
	fmt.Printf("  migrations          : %d low (consolidation) + %d high (overload relief)\n",
		result.TotalLowMigrations, result.TotalHighMigrations)
	fmt.Printf("  server switches     : %d activations, %d hibernations\n",
		result.TotalActivations, result.TotalHibernations)
	fmt.Printf("  VM-time in overload : %.5f%%\n", 100*result.VMOverloadTimeFrac)
	fmt.Printf("  saturation events   : %d\n", result.Saturations)
}
