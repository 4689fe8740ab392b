package config_test

import (
	"fmt"

	"repro/internal/config"
)

// ExampleAllocateMulti shows the Section 4.5 algorithm dividing a 384 KB
// unified memory for a dgemm-like kernel: registers and shared memory are
// sized for the maximum resident threads, and the remainder becomes cache.
func ExampleAllocateMulti() {
	req := config.KernelRequirements{
		RegsPerThread:     57,    // compiler: registers to avoid spills
		SharedBytesPerCTA: 17024, // programmer: scratchpad per CTA
		ThreadsPerCTA:     256,
	}
	cfg, err := config.AllocateMulti([]config.KernelRequirements{req}, config.BaselineTotalBytes, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println(cfg)
	fmt.Println("threads:", cfg.MaxThreads)
	// Output:
	// unified rf=228K shm=66K $=89K
	// threads: 1024
}
