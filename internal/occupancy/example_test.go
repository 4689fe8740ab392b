package occupancy_test

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/occupancy"
)

// ExampleComputeShared shows CTA-granular residency: needle's 8.8 KB-per-CTA
// scratchpad footprint limits the baseline SM to 7 CTAs (224 threads),
// the starvation the unified design relieves.
func ExampleComputeShared() {
	needle := config.KernelRequirements{
		RegsPerThread:     18,
		ThreadsPerCTA:     32,
		SharedBytesPerCTA: 8976,
	}
	r := occupancy.ComputeShared([]config.KernelRequirements{needle}, config.Baseline(), nil)[0]
	fmt.Printf("%d CTAs, %d threads, limited by %v\n", r.CTAs, r.Threads, r.Limiter)
	// Output:
	// 7 CTAs, 224 threads, limited by shared
}
