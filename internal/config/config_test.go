package config

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestBaselineGeometry(t *testing.T) {
	b := Baseline()
	if b.Design != Partitioned {
		t.Errorf("Design = %v", b.Design)
	}
	if b.TotalBytes() != 384<<10 {
		t.Errorf("TotalBytes() = %d, want 384K", b.TotalBytes())
	}
	if err := b.Validate(); err != nil {
		t.Errorf("Validate() = %v", err)
	}
	rf, sh, ch := b.BankBytes()
	if rf != 8<<10 || sh != 2<<10 || ch != 2<<10 {
		t.Errorf("BankBytes() = %d/%d/%d, want 8K/2K/2K", rf, sh, ch)
	}
}

func TestUnifiedBankBytes(t *testing.T) {
	m := MemConfig{Design: Unified, RFBytes: 228 << 10, SharedBytes: 64 << 10, CacheBytes: 92 << 10}
	rf, sh, ch := m.BankBytes()
	want := (384 << 10) / 32 // 12 KB
	if rf != want || sh != want || ch != want {
		t.Errorf("BankBytes() = %d/%d/%d, want %d each", rf, sh, ch, want)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []MemConfig{
		{Design: Partitioned, RFBytes: -1},
		{Design: Partitioned},
		{Design: Unified, RFBytes: 100}, // not divisible by 32 banks
		{Design: Partitioned, RFBytes: 1024, CacheBytes: 100},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: Validate() accepted %+v", i, m)
		}
	}
}

func TestThreadLimit(t *testing.T) {
	m := MemConfig{RFBytes: 1024}
	if m.ThreadLimit() != MaxThreadsPerSM {
		t.Errorf("default ThreadLimit() = %d", m.ThreadLimit())
	}
	m.MaxThreads = 512
	if m.ThreadLimit() != 512 {
		t.Errorf("ThreadLimit() = %d, want 512", m.ThreadLimit())
	}
	m.MaxThreads = 4096
	if m.ThreadLimit() != MaxThreadsPerSM {
		t.Errorf("oversized cap should clamp, got %d", m.ThreadLimit())
	}
}

func TestDesignString(t *testing.T) {
	if Partitioned.String() != "partitioned" || Unified.String() != "unified" || FermiLike.String() != "fermi-like" {
		t.Error("design names wrong")
	}
	if !strings.Contains(Baseline().String(), "rf=256K") {
		t.Errorf("config String() = %q", Baseline().String())
	}
}

// TestAllocateDGEMMLike reproduces the paper's dgemm split: 57 regs/thread
// and 66.5 KB of shared memory at full occupancy leave a larger cache than
// the baseline.
func TestAllocateDGEMMLike(t *testing.T) {
	req := KernelRequirements{
		RegsPerThread:     57,
		ThreadsPerCTA:     256,
		SharedBytesPerCTA: 66*1024 + 512, // 66.5 KB for 4 CTAs -> 16.625 KB per CTA
	}
	req.SharedBytesPerCTA = req.SharedBytesPerCTA / 4
	cfg, err := AllocateMulti([]KernelRequirements{req}, BaselineTotalBytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Design != Unified {
		t.Errorf("Design = %v", cfg.Design)
	}
	if cfg.MaxThreads != 1024 {
		t.Errorf("MaxThreads = %d, want 1024", cfg.MaxThreads)
	}
	if cfg.RFBytes != 57*4*1024 {
		t.Errorf("RFBytes = %d, want %d", cfg.RFBytes, 57*4*1024)
	}
	if cfg.CacheBytes <= 0 {
		t.Errorf("CacheBytes = %d, want positive remainder", cfg.CacheBytes)
	}
	if total := cfg.RFBytes + cfg.SharedBytes + cfg.CacheBytes; total > BaselineTotalBytes {
		t.Errorf("allocation exceeds capacity: %d > %d", total, BaselineTotalBytes)
	}
}

// TestAllocateNeedleLike checks the paper's headline case: a kernel with a
// huge shared-memory footprint gets most of the unified store as shared
// memory, which a partitioned design cannot offer.
func TestAllocateNeedleLike(t *testing.T) {
	req := KernelRequirements{
		RegsPerThread:     18,
		ThreadsPerCTA:     64,
		SharedBytesPerCTA: 16 * 1024, // ~264 B/thread
	}
	cfg, err := AllocateMulti([]KernelRequirements{req}, BaselineTotalBytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SharedBytes <= BaselineSharedBytes {
		t.Errorf("SharedBytes = %d, want far above the 64K baseline", cfg.SharedBytes)
	}
	if cfg.MaxThreads <= 256 {
		t.Errorf("MaxThreads = %d, want more threads than the partitioned design admits", cfg.MaxThreads)
	}
}

func TestAllocateRejectsImpossible(t *testing.T) {
	req := KernelRequirements{RegsPerThread: 64, ThreadsPerCTA: 1024, SharedBytesPerCTA: 600 << 10}
	if _, err := AllocateMulti([]KernelRequirements{req}, BaselineTotalBytes, 0); err == nil {
		t.Error("AllocateMulti() accepted a CTA larger than the unified memory")
	}
	if _, err := AllocateMulti([]KernelRequirements{{RegsPerThread: 8, ThreadsPerCTA: 0}}, BaselineTotalBytes, 0); err == nil {
		t.Error("AllocateMulti() accepted zero ThreadsPerCTA")
	}
	if _, err := AllocateMulti([]KernelRequirements{{RegsPerThread: 8, ThreadsPerCTA: 33}}, BaselineTotalBytes, 0); err == nil {
		t.Error("AllocateMulti() accepted non-warp-multiple CTA")
	}
}

func TestAllocateRespectsThreadCap(t *testing.T) {
	req := KernelRequirements{RegsPerThread: 9, ThreadsPerCTA: 256}
	cfg, err := AllocateMulti([]KernelRequirements{req}, BaselineTotalBytes, 512)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxThreads != 512 {
		t.Errorf("MaxThreads = %d, want 512", cfg.MaxThreads)
	}
}

// TestAllocateNeverOverflows property-checks the §4.5 algorithm: for any
// feasible kernel the chosen split fits the capacity and admits at least
// one CTA.
func TestAllocateNeverOverflows(t *testing.T) {
	f := func(regs, ctaWarps, shmKB uint8) bool {
		req := KernelRequirements{
			RegsPerThread:     1 + int(regs)%64,
			ThreadsPerCTA:     32 * (1 + int(ctaWarps)%8),
			SharedBytesPerCTA: int(shmKB) % 48 << 10,
		}
		cfg, err := AllocateMulti([]KernelRequirements{req}, BaselineTotalBytes, 0)
		if err != nil {
			// Infeasible combinations are allowed to error.
			return true
		}
		if cfg.TotalBytes() > BaselineTotalBytes {
			return false
		}
		return cfg.MaxThreads >= req.ThreadsPerCTA
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKernelRequirementsHelpers(t *testing.T) {
	req := KernelRequirements{RegsPerThread: 10, SharedBytesPerCTA: 2048, ThreadsPerCTA: 256}
	if req.BytesPerThread() != 40 {
		t.Errorf("BytesPerThread() = %d", req.BytesPerThread())
	}
}
