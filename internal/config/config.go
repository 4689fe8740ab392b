// Package config describes the SM local-memory organizations evaluated in
// the paper and implements the Section 4.5 allocation algorithm that
// partitions a unified memory among register file, shared memory, and cache
// on a per-kernel basis.
package config

import (
	"errors"
	"fmt"
)

// ErrDoesNotFit marks allocation failures in which a kernel cannot fit
// even one CTA in the available capacity. Allocate wraps it into its
// errors, and core.FitError matches it, so errors.Is(err, ErrDoesNotFit)
// is the single infeasibility test across the stack.
var ErrDoesNotFit = errors.New("kernel does not fit the available capacity")

// Machine constants shared by all designs (Table 2 of the paper).
const (
	// NumBanks is the number of local-memory banks per SM. Both the
	// partitioned and the unified design expose 32 banks to keep
	// bandwidth constant.
	NumBanks = 32
	// NumClusters is the number of 4-wide SIMT lane clusters per SM.
	NumClusters = 8
	// BanksPerCluster is the number of MRF (or unified) banks per cluster.
	BanksPerCluster = NumBanks / NumClusters
	// MaxThreadsPerSM is the architectural thread residency limit.
	MaxThreadsPerSM = 1024
	// MaxWarpsPerSM is the warp residency limit.
	MaxWarpsPerSM = MaxThreadsPerSM / 32
	// ActiveWarps is the active-set size of the two-level warp scheduler.
	ActiveWarps = 8
	// CacheLineBytes is the primary data cache line size.
	CacheLineBytes = 128
	// CacheWays is the cache associativity.
	CacheWays = 4
	// UnifiedBankWidth is the width of one unified bank in bytes.
	UnifiedBankWidth = 16
	// PartitionedShmemBankWidth is the width of one baseline shared
	// memory or cache bank in bytes.
	PartitionedShmemBankWidth = 4

	// BaselineRFBytes is the baseline partitioned register file capacity.
	BaselineRFBytes = 256 << 10
	// BaselineSharedBytes is the baseline shared memory capacity.
	BaselineSharedBytes = 64 << 10
	// BaselineCacheBytes is the baseline cache capacity.
	BaselineCacheBytes = 64 << 10
	// BaselineTotalBytes is the total baseline local storage (384 KB).
	BaselineTotalBytes = BaselineRFBytes + BaselineSharedBytes + BaselineCacheBytes
)

// Design enumerates the three local-memory organizations compared in the
// paper.
type Design uint8

const (
	// Partitioned is the baseline: dedicated 16-byte MRF banks plus
	// dedicated 4-byte shared-memory and cache banks with fixed capacity.
	Partitioned Design = iota
	// Unified merges register file, shared memory, and cache into 32
	// uniform 16-byte banks whose capacity split is set per kernel.
	Unified
	// FermiLike keeps a fixed register file but allows the remaining
	// storage to be split between shared memory and cache in two preset
	// ratios (the Fermi 16/48 and 48/16 choice, scaled to capacity).
	FermiLike
)

// String names the design.
func (d Design) String() string {
	switch d {
	case Partitioned:
		return "partitioned"
	case Unified:
		return "unified"
	case FermiLike:
		return "fermi-like"
	}
	return fmt.Sprintf("Design(%d)", uint8(d))
}

// MemConfig is a fully resolved SM local-memory configuration: the design
// style plus the concrete capacity assigned to each function for the kernel
// about to run.
type MemConfig struct {
	// Design selects the bank organization and conflict model.
	Design Design
	// RFBytes is the register file capacity in bytes.
	RFBytes int
	// SharedBytes is the shared-memory capacity in bytes.
	SharedBytes int
	// CacheBytes is the primary data cache capacity in bytes.
	CacheBytes int
	// MaxThreads caps resident threads (used by the thread-count sweeps
	// in Figures 2-4; 0 means the architectural limit).
	MaxThreads int
}

// TotalBytes returns the aggregate local storage of the configuration.
func (m MemConfig) TotalBytes() int { return m.RFBytes + m.SharedBytes + m.CacheBytes }

// ThreadLimit returns the effective resident-thread cap.
func (m MemConfig) ThreadLimit() int {
	if m.MaxThreads <= 0 || m.MaxThreads > MaxThreadsPerSM {
		return MaxThreadsPerSM
	}
	return m.MaxThreads
}

// BankBytes returns the capacity of one bank for the structure sizes of
// this configuration: (rf, shared, cache) bank sizes for the partitioned
// design, or the single unified bank size repeated for the unified design.
func (m MemConfig) BankBytes() (rf, shared, cache int) {
	switch m.Design {
	case Unified:
		u := m.TotalBytes() / NumBanks
		return u, u, u
	default:
		return m.RFBytes / NumBanks, m.SharedBytes / NumBanks, m.CacheBytes / NumBanks
	}
}

// String renders the configuration compactly, e.g. "unified rf=228K shm=67K $=89K".
func (m MemConfig) String() string {
	return fmt.Sprintf("%s rf=%dK shm=%dK $=%dK", m.Design,
		m.RFBytes>>10, m.SharedBytes>>10, m.CacheBytes>>10)
}

// Validate checks structural invariants of the configuration.
func (m MemConfig) Validate() error {
	if m.RFBytes < 0 || m.SharedBytes < 0 || m.CacheBytes < 0 {
		return errors.New("config: negative capacity")
	}
	if m.TotalBytes() == 0 {
		return errors.New("config: zero total capacity")
	}
	if m.Design == Unified && m.TotalBytes()%NumBanks != 0 {
		return fmt.Errorf("config: unified capacity %d not divisible by %d banks",
			m.TotalBytes(), NumBanks)
	}
	if m.CacheBytes > 0 && m.CacheBytes%(CacheLineBytes*CacheWays) != 0 {
		return fmt.Errorf("config: cache capacity %d not divisible by way*line", m.CacheBytes)
	}
	return nil
}

// Baseline returns the baseline partitioned 256/64/64 KB configuration.
func Baseline() MemConfig {
	return MemConfig{
		Design:      Partitioned,
		RFBytes:     BaselineRFBytes,
		SharedBytes: BaselineSharedBytes,
		CacheBytes:  BaselineCacheBytes,
	}
}

// KernelRequirements captures what the programming system knows about a
// kernel when the Section 4.5 allocation runs.
type KernelRequirements struct {
	// RegsPerThread is the compiler-computed register count that avoids
	// spills (Table 1, column 2).
	RegsPerThread int
	// SharedBytesPerCTA is the programmer-declared shared memory per CTA.
	SharedBytesPerCTA int
	// ThreadsPerCTA is the CTA size.
	ThreadsPerCTA int
}

// BytesPerThread returns the per-thread register file footprint (4-byte
// registers).
func (k KernelRequirements) BytesPerThread() int { return k.RegsPerThread * 4 }

// AllocateMulti implements the Section 4.5 automatic partitioning of a
// unified memory of totalBytes shared by a set of co-resident kernels
// (one kernel is the ordinary case):
//
//  1. the compiler supplies registers per thread to avoid spills,
//  2. the programmer supplies shared memory per CTA,
//  3. the scheduler maximizes resident threads (CTA granular) under the
//     capacity, and
//  4. all remaining storage becomes primary data cache.
//
// CTAs are admitted greedily round-robin — each round
// offers every kernel, in index order, one more CTA under the joint
// thread and capacity budgets — so the split reflects the same
// interleaving the dispatcher uses for CTA slots. Register file and
// shared memory are sized to the admitted footprints, and all remaining
// storage becomes primary data cache, rounded down to a whole number of
// sets so the tag array is well formed (the sub-set remainder is below
// one bank's granularity and does not affect the model).
//
// Every kernel must admit at least one CTA alongside its co-tenants;
// otherwise AllocateMulti fails with ErrDoesNotFit. threadCap, if
// non-zero, bounds the joint resident-thread count.
func AllocateMulti(reqs []KernelRequirements, totalBytes, threadCap int) (MemConfig, error) {
	if len(reqs) == 0 {
		return MemConfig{}, errors.New("config: no kernels to allocate for")
	}
	for i, req := range reqs {
		if req.ThreadsPerCTA <= 0 {
			return MemConfig{}, fmt.Errorf("config: kernel %d: ThreadsPerCTA must be positive", i)
		}
		if req.ThreadsPerCTA%32 != 0 {
			return MemConfig{}, fmt.Errorf("config: kernel %d: ThreadsPerCTA %d not a multiple of the warp size", i, req.ThreadsPerCTA)
		}
	}
	limit := MaxThreadsPerSM
	if threadCap > 0 && threadCap < limit {
		limit = threadCap
	}
	ctas := make([]int, len(reqs))
	blocked := make([]bool, len(reqs))
	threads, used := 0, 0
	for progress := true; progress; {
		progress = false
		for i, req := range reqs {
			if blocked[i] {
				continue
			}
			perCTA := req.BytesPerThread()*req.ThreadsPerCTA + req.SharedBytesPerCTA
			if threads+req.ThreadsPerCTA > limit || used+perCTA > totalBytes {
				blocked[i] = true
				continue
			}
			ctas[i]++
			threads += req.ThreadsPerCTA
			used += perCTA
			progress = true
		}
	}
	cfg := MemConfig{Design: Unified, MaxThreads: threads}
	for i, req := range reqs {
		if ctas[i] < 1 {
			return MemConfig{}, fmt.Errorf("config: kernel %d cannot fit one CTA (%d threads) in %d bytes under a %d-thread limit alongside %d co-tenants: %w",
				i, req.ThreadsPerCTA, totalBytes, limit, len(reqs)-1, ErrDoesNotFit)
		}
		cfg.RFBytes += ctas[i] * req.ThreadsPerCTA * req.BytesPerThread()
		cfg.SharedBytes += ctas[i] * req.SharedBytesPerCTA
	}
	cfg.CacheBytes = totalBytes - cfg.RFBytes - cfg.SharedBytes
	cfg.CacheBytes -= cfg.CacheBytes % (CacheLineBytes * CacheWays)
	return cfg, nil
}

// FermiSplits returns the two shared/cache splits offered by the Fermi-like
// limited design for a given non-register capacity: (3/4, 1/4) and
// (1/4, 3/4), mirroring Fermi's 48/16 KB choice scaled to capacity.
func FermiSplits(nonRFBytes int) [2]MemConfig {
	large := nonRFBytes * 3 / 4
	small := nonRFBytes - large
	return [2]MemConfig{
		{Design: FermiLike, RFBytes: BaselineRFBytes, SharedBytes: large, CacheBytes: small},
		{Design: FermiLike, RFBytes: BaselineRFBytes, SharedBytes: small, CacheBytes: large},
	}
}

// ChooseFermiMulti picks the Fermi-like shared/cache split that admits
// the most joint resident threads for a set of co-resident kernels (one
// kernel is the ordinary case), breaking ties toward the larger cache —
// a kernel that uses no shared memory always gets it. Residency uses the
// same round-robin CTA admission as AllocateMulti, under the split's
// fixed register-file and shared-memory capacities.
func ChooseFermiMulti(reqs []KernelRequirements, nonRFBytes, threadCap int) MemConfig {
	splits := FermiSplits(nonRFBytes)
	best := splits[1]
	if residentThreads(reqs, splits[0], threadCap) > residentThreads(reqs, splits[1], threadCap) {
		best = splits[0]
	}
	best.MaxThreads = threadCap
	return best
}

// residentThreads counts joint resident threads for co-resident kernels
// under a fixed configuration, using round-robin CTA admission (the full
// treatment with diagnostics lives in internal/occupancy).
func residentThreads(reqs []KernelRequirements, cfg MemConfig, threadCap int) int {
	limit := cfg.ThreadLimit()
	if threadCap > 0 && threadCap < limit {
		limit = threadCap
	}
	blocked := make([]bool, len(reqs))
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
			rfPerCTA := req.BytesPerThread() * req.ThreadsPerCTA
			if threads+req.ThreadsPerCTA > limit ||
				rfUsed+rfPerCTA > cfg.RFBytes ||
				shUsed+req.SharedBytesPerCTA > cfg.SharedBytes {
				blocked[i] = true
				continue
			}
			threads += req.ThreadsPerCTA
			rfUsed += rfPerCTA
			shUsed += req.SharedBytesPerCTA
			progress = true
		}
	}
	return threads
}
