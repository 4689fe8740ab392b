package occupancy

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
)

func req(regs, ctaThreads, shmPerCTA int) config.KernelRequirements {
	return config.KernelRequirements{
		RegsPerThread:     regs,
		ThreadsPerCTA:     ctaThreads,
		SharedBytesPerCTA: shmPerCTA,
	}
}

func TestThreadLimited(t *testing.T) {
	r := ComputeShared([]config.KernelRequirements{req(16, 256, 1024)}, config.Baseline(), nil)[0]
	if r.Limiter != LimitThreads {
		t.Errorf("Limiter = %v, want threads", r.Limiter)
	}
	if r.Threads != 1024 || r.CTAs != 4 || r.Warps != 32 {
		t.Errorf("got %+v", r)
	}
}

func TestRegisterLimited(t *testing.T) {
	// 57 regs * 4 B * 256 threads = 58368 B per CTA; 256 KB fits 4 CTAs
	// (233472 B), so dgemm stays thread limited at baseline; at 128 KB RF
	// it becomes register limited with 2 CTAs.
	cfg := config.Baseline()
	cfg.RFBytes = 128 << 10
	r := ComputeShared([]config.KernelRequirements{req(57, 256, 0)}, cfg, nil)[0]
	if r.Limiter != LimitRegisters {
		t.Errorf("Limiter = %v, want registers", r.Limiter)
	}
	if r.CTAs != 2 {
		t.Errorf("CTAs = %d, want 2", r.CTAs)
	}
}

func TestSharedLimited(t *testing.T) {
	// Needle-like: 16 KB/CTA of shared memory in a 64 KB scratchpad.
	r := ComputeShared([]config.KernelRequirements{req(18, 64, 16<<10)}, config.Baseline(), nil)[0]
	if r.Limiter != LimitShared {
		t.Errorf("Limiter = %v, want shared", r.Limiter)
	}
	if r.CTAs != 4 || r.Threads != 256 {
		t.Errorf("got %+v", r)
	}
}

func TestNoneFit(t *testing.T) {
	cfg := config.MemConfig{Design: config.Partitioned, RFBytes: 1024, SharedBytes: 0, CacheBytes: 0}
	r := ComputeShared([]config.KernelRequirements{req(64, 256, 0)}, cfg, nil)[0]
	if r.Limiter != LimitNone || r.CTAs != 0 {
		t.Errorf("got %+v, want none-fit", r)
	}
	r = ComputeShared([]config.KernelRequirements{req(8, 0, 0)}, config.Baseline(), nil)[0]
	if r.Limiter != LimitNone {
		t.Errorf("zero CTA size: got %+v", r)
	}
}

func TestRegsAllocatedOverride(t *testing.T) {
	// Allocating only 18 of the needed 57 registers raises occupancy.
	cfg := config.Baseline()
	cfg.RFBytes = 128 << 10
	full := ComputeShared([]config.KernelRequirements{req(57, 256, 0)}, cfg, nil)[0]
	squeezed := ComputeShared([]config.KernelRequirements{req(57, 256, 0)}, cfg, []int{18})[0]
	if squeezed.Threads <= full.Threads {
		t.Errorf("smaller allocation should admit more threads: %d vs %d",
			squeezed.Threads, full.Threads)
	}
}

func TestMaxThreadsCapInConfig(t *testing.T) {
	cfg := config.Baseline()
	cfg.MaxThreads = 512
	r := ComputeShared([]config.KernelRequirements{req(8, 256, 0)}, cfg, nil)[0]
	if r.Threads != 512 || r.Limiter != LimitThreads {
		t.Errorf("got %+v", r)
	}
}

func TestFullOccupancyRFBytes(t *testing.T) {
	// Table 1: needle needs 18 regs -> 72 KB; dgemm 57 -> 228 KB.
	if got := FullOccupancyRFBytes(18); got != 72<<10 {
		t.Errorf("FullOccupancyRFBytes(18) = %d, want 72K", got)
	}
	if got := FullOccupancyRFBytes(57); got != 228<<10 {
		t.Errorf("FullOccupancyRFBytes(57) = %d, want 228K", got)
	}
}

// TestOccupancyInvariants property-checks that the residency never exceeds
// any capacity and is always a whole number of CTAs.
func TestOccupancyInvariants(t *testing.T) {
	f := func(regs, warps, shmKB, rfKB, shKB uint8) bool {
		r := req(1+int(regs)%64, 32*(1+int(warps)%8), (int(shmKB)%40)<<10)
		cfg := config.MemConfig{
			Design:      config.Partitioned,
			RFBytes:     (1 + int(rfKB)) << 10,
			SharedBytes: (int(shKB) % 65) << 10,
			CacheBytes:  64 << 10,
		}
		res := ComputeShared([]config.KernelRequirements{r}, cfg, nil)[0]
		if res.CTAs == 0 {
			return res.Threads == 0
		}
		if res.Threads != res.CTAs*r.ThreadsPerCTA {
			return false
		}
		if res.RFBytesUsed > cfg.RFBytes || res.SharedBytesUsed > cfg.SharedBytes {
			return false
		}
		return res.Threads <= config.MaxThreadsPerSM
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFermiSplits(t *testing.T) {
	splits := FermiSplits(128 << 10)
	if splits[0].SharedBytes != 96<<10 || splits[0].CacheBytes != 32<<10 {
		t.Errorf("split 0 = %v", splits[0])
	}
	if splits[1].SharedBytes != 32<<10 || splits[1].CacheBytes != 96<<10 {
		t.Errorf("split 1 = %v", splits[1])
	}
	for _, s := range splits {
		if s.Design != config.FermiLike || s.RFBytes != config.BaselineRFBytes {
			t.Errorf("split has wrong design/RF: %v", s)
		}
	}
}

func TestChooseFermiPrefersCacheWhenNoShared(t *testing.T) {
	req := config.KernelRequirements{RegsPerThread: 9, ThreadsPerCTA: 256}
	cfg := ChooseFermiMulti([]config.KernelRequirements{req}, 128<<10, 0)
	if cfg.CacheBytes != 96<<10 {
		t.Errorf("no-shared kernel should get the large cache, got %v", cfg)
	}
}

func TestChooseFermiPrefersSharedWhenLimited(t *testing.T) {
	// 24 KB/CTA of shared memory: the 32 KB split fits 1 CTA, the 96 KB
	// split fits 4 CTAs -> choose large shared memory.
	req := config.KernelRequirements{RegsPerThread: 16, ThreadsPerCTA: 256, SharedBytesPerCTA: 24 << 10}
	cfg := ChooseFermiMulti([]config.KernelRequirements{req}, 128<<10, 0)
	if cfg.SharedBytes != 96<<10 {
		t.Errorf("shared-hungry kernel should get the large shared memory, got %v", cfg)
	}
}
