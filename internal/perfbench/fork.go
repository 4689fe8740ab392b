package perfbench

import (
	"context"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workloads"
)

// ForkSweepKernel is the workload the fork-sweep benchmark runs: long
// enough that the warm prefix dominates, memory-bound enough that the
// snapshot carries nontrivial cache and MSHR state.
const ForkSweepKernel = "needle"

// ForkSweep is the measured copy-on-write fork speedup: one prefix
// warmed to WarmCycle (~90% of the exact run) and resumed into Points
// divergent parameter points, against the same points simulated the
// exact way (fresh run + in-place parameter switch at the warm cycle).
// Both sides produce bit-identical counters (internal/simtest pins
// that), so the speedup buys nothing but time.
type ForkSweep struct {
	Kernel string `json:"kernel"`
	// TotalCycles is the kernel's exact-run cycle count; WarmCycle is
	// the shared prefix target derived from it.
	TotalCycles int64 `json:"total_cycles"`
	WarmCycle   int64 `json:"warm_cycle"`
	Points      int   `json:"points"`
	// ForkSeconds covers warming once plus Points forked resumes;
	// ExactSeconds covers Points fresh runs of identical work.
	ForkSeconds  float64 `json:"fork_seconds"`
	ExactSeconds float64 `json:"exact_seconds"`
	Speedup      float64 `json:"speedup"`
}

// forkSweepPoints are the divergent parameter points of the measured
// sweep: a DRAM-latency axis, the shape cmd/sweep's -resource dramlat
// runs. Latency points keep each tail's step count near the prefix's
// pace, so the measured speedup reflects the shared prefix rather than
// pathological tails.
var forkSweepPoints = []int64{200, 300, 400, 500, 600, 700, 800, 900}

// MeasureForkSweep measures the fork-sweep speedup. Both sides run
// serially so the two times divide cleanly.
func MeasureForkSweep() (*ForkSweep, error) {
	k, err := workloads.ByName(ForkSweepKernel)
	if err != nil {
		return nil, err
	}
	spec := core.RunSpec{Kernel: k, Config: config.Baseline()}
	r := core.NewRunner()
	// Pre-measure the exact run: its cycle count places the warm target
	// at 90% of the run, and the run itself warms the trace cache and
	// the energy baseline so neither side pays first-touch costs.
	res, err := r.Run(spec)
	if err != nil {
		return nil, err
	}
	fs := &ForkSweep{
		Kernel:      k.Name,
		TotalCycles: res.Counters.Cycles,
		WarmCycle:   res.Counters.Cycles * 9 / 10,
		Points:      len(forkSweepPoints),
	}

	ctx := context.Background()
	start := time.Now()
	warm, err := r.Warm(ctx, spec, fs.WarmCycle)
	if err != nil {
		return nil, err
	}
	for _, lat := range forkSweepPoints {
		p := warm.Params
		p.DRAM.LatencyCycles = lat
		if _, err := warm.Resume(ctx, r, p); err != nil {
			return nil, err
		}
	}
	fs.ForkSeconds = time.Since(start).Seconds()

	start = time.Now()
	for _, lat := range forkSweepPoints {
		p := warm.Params
		p.DRAM.LatencyCycles = lat
		if _, err := warm.ResumeExact(ctx, r, p); err != nil {
			return nil, err
		}
	}
	fs.ExactSeconds = time.Since(start).Seconds()
	if fs.ForkSeconds > 0 {
		fs.Speedup = fs.ExactSeconds / fs.ForkSeconds
	}
	return fs, nil
}
