// Package occupancy computes CTA-granular thread residency: how many
// cooperative thread arrays of a kernel fit on an SM given the register
// file and shared memory capacities of a configuration.
//
// Occupancy is the lever through which local-memory capacity affects
// performance in the paper: a larger register file or shared memory admits
// more concurrent threads, which hides more DRAM latency.
package occupancy

import (
	"fmt"

	"repro/internal/config"
)

// Limiter identifies which resource bounds residency.
type Limiter uint8

const (
	// LimitThreads means the architectural (or requested) thread cap binds.
	LimitThreads Limiter = iota
	// LimitRegisters means register file capacity binds.
	LimitRegisters
	// LimitShared means shared memory capacity binds.
	LimitShared
	// LimitNone means not even one CTA fits.
	LimitNone
)

// String names the limiter.
func (l Limiter) String() string {
	switch l {
	case LimitThreads:
		return "threads"
	case LimitRegisters:
		return "registers"
	case LimitShared:
		return "shared"
	case LimitNone:
		return "none-fit"
	}
	return fmt.Sprintf("Limiter(%d)", uint8(l))
}

// Result describes the residency computation.
type Result struct {
	// CTAs is the number of concurrently resident CTAs.
	CTAs int
	// Threads is CTAs * ThreadsPerCTA.
	Threads int
	// Warps is Threads / 32.
	Warps int
	// Limiter names the binding resource.
	Limiter Limiter
	// RFBytesUsed and SharedBytesUsed are the footprints of the resident
	// CTAs.
	RFBytesUsed, SharedBytesUsed int
}

// ComputeShared returns per-stream residency when several kernels are
// co-resident on one SM; one kernel is the ordinary case. CTA slots are
// admitted greedily round-robin: each round offers every stream, in
// index order, one more CTA, which is admitted only if the joint
// thread, register-file, and shared-memory budgets still hold.
// Footprints only grow, so a stream that fails admission is blocked for
// good; the loop ends when every stream is blocked. The round-robin
// order matches the dispatcher's CTA-slot interleaving, so slot layout
// follows directly from this result.
//
// regsAllocated optionally overrides the register allocation per stream
// (nil or a zero entry means the stream's RegsPerThread). Each stream's
// Limiter names the resource that denied its next CTA; a stream that
// admits no CTA at all reports LimitNone.
func ComputeShared(reqs []config.KernelRequirements, cfg config.MemConfig, regsAllocated []int) []Result {
	out := make([]Result, len(reqs))
	blocked := make([]bool, len(reqs))
	limit := cfg.ThreadLimit()
	threads, rfUsed, shUsed := 0, 0, 0
	for i, req := range reqs {
		if req.ThreadsPerCTA <= 0 {
			blocked[i] = true
		}
	}
	for progress := true; progress; {
		progress = false
		for i, req := range reqs {
			if blocked[i] {
				continue
			}
			regs := req.RegsPerThread
			if regsAllocated != nil && regsAllocated[i] > 0 {
				regs = regsAllocated[i]
			}
			rfPerCTA := regs * 4 * req.ThreadsPerCTA
			switch {
			case threads+req.ThreadsPerCTA > limit:
				blocked[i] = true
				out[i].Limiter = LimitThreads
			case rfUsed+rfPerCTA > cfg.RFBytes:
				blocked[i] = true
				out[i].Limiter = LimitRegisters
			case shUsed+req.SharedBytesPerCTA > cfg.SharedBytes:
				blocked[i] = true
				out[i].Limiter = LimitShared
			default:
				out[i].CTAs++
				out[i].RFBytesUsed += rfPerCTA
				out[i].SharedBytesUsed += req.SharedBytesPerCTA
				threads += req.ThreadsPerCTA
				rfUsed += rfPerCTA
				shUsed += req.SharedBytesPerCTA
				progress = true
			}
		}
	}
	for i, req := range reqs {
		if out[i].CTAs <= 0 {
			out[i] = Result{Limiter: LimitNone}
			continue
		}
		out[i].Threads = out[i].CTAs * req.ThreadsPerCTA
		out[i].Warps = out[i].Threads / 32
	}
	return out
}

// FermiSplits returns the two shared/cache splits offered by the Fermi-like
// limited design for a given non-register capacity: (3/4, 1/4) and
// (1/4, 3/4), mirroring Fermi's 48/16 KB choice scaled to capacity.
func FermiSplits(nonRFBytes int) [2]config.MemConfig {
	large := nonRFBytes * 3 / 4
	small := nonRFBytes - large
	return [2]config.MemConfig{
		{Design: config.FermiLike, RFBytes: config.BaselineRFBytes, SharedBytes: large, CacheBytes: small},
		{Design: config.FermiLike, RFBytes: config.BaselineRFBytes, SharedBytes: small, CacheBytes: large},
	}
}

// ChooseFermiMulti picks the Fermi-like shared/cache split that admits
// the most joint resident threads for a set of co-resident kernels (one
// kernel is the ordinary case), breaking ties toward the larger cache —
// a kernel that uses no shared memory always gets it. Residency is
// ComputeShared's on each split under the thread cap.
func ChooseFermiMulti(reqs []config.KernelRequirements, nonRFBytes, threadCap int) config.MemConfig {
	splits := FermiSplits(nonRFBytes)
	threads := [2]int{}
	for i := range splits {
		splits[i].MaxThreads = threadCap
		for _, r := range ComputeShared(reqs, splits[i], nil) {
			threads[i] += r.Threads
		}
	}
	if threads[0] > threads[1] {
		return splits[0]
	}
	return splits[1]
}

// FullOccupancyRFBytes returns the register file capacity needed to run the
// architectural thread limit without spills (Table 1, column 8).
func FullOccupancyRFBytes(regsPerThread int) int {
	return regsPerThread * 4 * config.MaxThreadsPerSM
}
