// Quickstart: run one benchmark under the baseline partitioned design and
// under a unified memory partitioned by the paper's Section 4.5 algorithm,
// then compare performance, DRAM traffic, and energy.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workloads"
)

func main() {
	// Pick a workload from the registry. needle is the paper's headline:
	// a shared-memory-hungry dynamic-programming kernel that a fixed
	// 64 KB scratchpad starves.
	kernel, err := workloads.ByName("needle")
	if err != nil {
		log.Fatal(err)
	}
	runner := core.NewRunner()

	// 1. The baseline SM: 256 KB register file, 64 KB shared, 64 KB cache.
	baseline, err := runner.Run(core.RunSpec{Kernel: kernel, Config: config.Baseline()})
	if err != nil {
		log.Fatal(err)
	}

	// 2. The same 384 KB of SRAM as a unified memory, split per kernel:
	// the compiler reports registers/thread, the programmer shared
	// memory/CTA, the scheduler maximizes threads, and the rest is cache.
	unifiedCfg, err := config.AllocateMulti([]config.KernelRequirements{kernel.Requirements()}, config.BaselineTotalBytes, 0)
	if err != nil {
		log.Fatal(err)
	}
	unified, err := runner.Run(core.RunSpec{Kernel: kernel, Config: unifiedCfg})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: %s — %s\n\n", kernel.Name, kernel.Description)
	show := func(name string, r *core.Result) {
		fmt.Printf("%-12s %v\n", name, r.Spec.Config)
		fmt.Printf("             threads=%d (limited by %v)  cycles=%d  IPC=%.3f\n",
			r.Occupancy.Threads, r.Occupancy.Limiter, r.Counters.Cycles, r.Counters.IPC())
		fmt.Printf("             dram=%d B  energy=%.3e J\n\n",
			r.Counters.DRAMBytes(), r.Energy.Total())
	}
	show("baseline", baseline)
	show("unified", unified)

	speedup := float64(baseline.Counters.Cycles) / float64(unified.Counters.Cycles)
	energy := unified.Energy.Total() / baseline.Energy.Total()
	fmt.Printf("unified vs baseline: %.2fx performance, %.2fx energy\n", speedup, energy)
}
