package sm

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/kgen"
	"repro/internal/trace"
)

// funcSource records a ctas x warps grid whose warps gen builds.
func funcSource(ctas, warps int, gen func(cta, warp int) []isa.WarpInst) *trace.Trace {
	t := &trace.Trace{CTAs: ctas, WarpsPerCTA: warps}
	for i := range ctas * warps {
		t.Warps = append(t.Warps, isa.Split(gen(i/warps, i%warps)))
	}
	return t
}

func build(f func(b *kgen.Builder)) []isa.WarpInst {
	b := kgen.NewBuilder(kgen.Config{})
	f(b)
	return b.Finish()
}

// newSM is the tests' shorthand for NewSM with the common Spec fields.
func newSM(cfg config.MemConfig, params Params, src TraceSource, residentCTAs int) (*SM, error) {
	return NewSM(Spec{Config: cfg, Params: params, Source: src, ResidentCTAs: residentCTAs})
}

func TestSingleWarpALUChain(t *testing.T) {
	// A dependent ALU chain of N instructions: each waits 8 cycles for
	// its predecessor, so runtime is close to 8*N.
	const n = 100
	src := funcSource(1, 1, func(_, _ int) []isa.WarpInst {
		return build(func(b *kgen.Builder) {
			b.ALU(0)
			for i := 1; i < n; i++ {
				b.ALU(uint8(i%4), uint8((i-1)%4))
			}
		})
	})
	s, err := newSM(config.Baseline(), DefaultParams(), src, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles < 8*(n-1) || c.Cycles > 8*n+50 {
		t.Errorf("dependent chain cycles = %d, want ~%d", c.Cycles, 8*n)
	}
	if c.WarpInsts != n+1 { // +EXIT
		t.Errorf("WarpInsts = %d, want %d", c.WarpInsts, n+1)
	}
}

func TestIndependentWarpsHideLatency(t *testing.T) {
	// 8 warps of dependent chains issue in the chain-latency shadow of
	// each other: total runtime should be much less than 8x one warp.
	chain := func(_, _ int) []isa.WarpInst {
		return build(func(b *kgen.Builder) {
			b.ALU(0)
			for i := 1; i < 64; i++ {
				b.ALU(uint8(i%4), uint8((i-1)%4))
			}
		})
	}
	one, err := newSM(config.Baseline(), DefaultParams(), funcSource(1, 1, chain), 1)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := one.Run()
	if err != nil {
		t.Fatal(err)
	}
	eight, err := newSM(config.Baseline(), DefaultParams(), funcSource(1, 8, chain), 1)
	if err != nil {
		t.Fatal(err)
	}
	c8, err := eight.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c8.Cycles > c1.Cycles+100 {
		t.Errorf("8 warps took %d cycles vs %d for 1: latency not hidden", c8.Cycles, c1.Cycles)
	}
}

func TestCacheHitVersusMissLatency(t *testing.T) {
	// Same trace; with a cache the second pass over the data hits (short
	// runtime), without a cache every load pays DRAM latency.
	gen := func(_, _ int) []isa.WarpInst {
		return build(func(b *kgen.Builder) {
			for pass := 0; pass < 4; pass++ {
				for i := 0; i < 16; i++ {
					b.LDG(uint8(i%8), isa.NoReg, kgen.Coalesced(uint32(i)*128, 4))
					b.ALU(8, uint8(i%8)) // consume
				}
			}
		})
	}
	cached := config.Baseline()
	uncached := config.Baseline()
	uncached.CacheBytes = 0
	sC, _ := newSM(cached, DefaultParams(), funcSource(1, 1, gen), 1)
	cC, err := sC.Run()
	if err != nil {
		t.Fatal(err)
	}
	sU, _ := newSM(uncached, DefaultParams(), funcSource(1, 1, gen), 1)
	cU, err := sU.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cC.Cycles >= cU.Cycles {
		t.Errorf("cached run (%d cycles) not faster than uncached (%d)", cC.Cycles, cU.Cycles)
	}
	if cC.CacheMisses != 16 {
		t.Errorf("CacheMisses = %d, want 16 cold misses", cC.CacheMisses)
	}
	if cC.CacheHits != 48 {
		t.Errorf("CacheHits = %d, want 48 warm hits", cC.CacheHits)
	}
	if cU.DRAMReadBytes <= cC.DRAMReadBytes {
		t.Error("uncached run should read more DRAM")
	}
}

func TestWriteThroughTraffic(t *testing.T) {
	gen := func(_, _ int) []isa.WarpInst {
		return build(func(b *kgen.Builder) {
			b.ALU(0)
			for i := 0; i < 10; i++ {
				b.STG(0, isa.NoReg, kgen.Coalesced(uint32(i)*128, 4))
			}
		})
	}
	s, _ := newSM(config.Baseline(), DefaultParams(), funcSource(1, 1, gen), 1)
	c, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.DRAMWriteBytes != 10*32*4 {
		t.Errorf("DRAMWriteBytes = %d, want %d (write-through)", c.DRAMWriteBytes, 10*32*4)
	}
	if c.DRAMReadBytes != 0 {
		t.Errorf("DRAMReadBytes = %d, want 0 (no-write-allocate)", c.DRAMReadBytes)
	}
}

func TestBarrierSynchronizesCTA(t *testing.T) {
	// Warp 0 does long work before the barrier; warp 1 reaches it
	// immediately. Both must finish after warp 0's pre-barrier work.
	gen := func(_, warp int) []isa.WarpInst {
		return build(func(b *kgen.Builder) {
			if warp == 0 {
				b.ALU(0)
				for i := 0; i < 50; i++ {
					b.ALU(0, 0) // dependent chain: 8 cycles each
				}
			}
			b.Bar()
			b.ALU(1)
		})
	}
	s, _ := newSM(config.Baseline(), DefaultParams(), funcSource(1, 2, gen), 1)
	c, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles < 400 {
		t.Errorf("cycles = %d; barrier should make both warps wait for the slow one", c.Cycles)
	}
}

func TestBarrierReleasedByExitingWarp(t *testing.T) {
	// Warp 1 exits without reaching the barrier; warp 0 must not hang.
	gen := func(_, warp int) []isa.WarpInst {
		return build(func(b *kgen.Builder) {
			if warp == 0 {
				b.ALU(0)
				b.Bar()
			}
			b.ALU(1)
		})
	}
	s, _ := newSM(config.Baseline(), DefaultParams(), funcSource(1, 2, gen), 1)
	if _, err := s.Run(); err != nil {
		t.Fatalf("CTA with early-exiting warp deadlocked: %v", err)
	}
}

// TestNoProgressIsTyped: a run whose clock passes the cycle bound fails
// with an error that matches ErrNoProgress under errors.Is and names the
// cycle. A partial barrier cannot get there (see
// TestBarrierReleasedByExitingWarp), so the trace waits on an ALU result
// due past the bound.
func TestNoProgressIsTyped(t *testing.T) {
	params := DefaultParams()
	params.ALULatency = 2 * cycleBound
	gen := func(_, _ int) []isa.WarpInst {
		return build(func(b *kgen.Builder) {
			b.ALU(0)
			b.ALU(1, 0)
		})
	}
	s, err := newSM(config.Baseline(), params, funcSource(1, 1, gen), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run()
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("Run error = %v, want ErrNoProgress", err)
	}
	if !strings.Contains(err.Error(), "by cycle ") {
		t.Errorf("error %q does not name the cycle", err)
	}
}

func TestCTARotation(t *testing.T) {
	// 6 CTAs over 2 slots: all must retire.
	gen := func(cta, _ int) []isa.WarpInst {
		return build(func(b *kgen.Builder) {
			b.ALU(0)
			b.ALU(1, 0)
		})
	}
	s, _ := newSM(config.Baseline(), DefaultParams(), funcSource(6, 2, gen), 2)
	c, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.CTAsRetired != 6 {
		t.Errorf("CTAsRetired = %d, want 6", c.CTAsRetired)
	}
	if c.ThreadsRun != 6*2*32 {
		t.Errorf("ThreadsRun = %d", c.ThreadsRun)
	}
	if c.MaxResidentThreads != 2*2*32 {
		t.Errorf("MaxResidentThreads = %d, want 128", c.MaxResidentThreads)
	}
}

func TestMoreResidentCTAsHideDRAMLatency(t *testing.T) {
	// A DRAM-bound streaming kernel: each CTA loads distinct lines.
	// More resident CTAs -> more latency overlap -> fewer cycles.
	gen := func(cta, warp int) []isa.WarpInst {
		return build(func(b *kgen.Builder) {
			base := uint32(cta)*1<<20 + uint32(warp)*1<<16
			for i := 0; i < 32; i++ {
				b.LDG(uint8(i%4), isa.NoReg, kgen.Coalesced(base+uint32(i)*4096, 4))
				b.ALU(5, uint8(i%4))
			}
		})
	}
	cfg := config.Baseline()
	cfg.CacheBytes = 0 // force DRAM on every access
	one, _ := newSM(cfg, DefaultParams(), funcSource(8, 2, gen), 1)
	c1, err := one.Run()
	if err != nil {
		t.Fatal(err)
	}
	four, _ := newSM(cfg, DefaultParams(), funcSource(8, 2, gen), 4)
	c4, err := four.Run()
	if err != nil {
		t.Fatal(err)
	}
	if float64(c4.Cycles) > 0.7*float64(c1.Cycles) {
		t.Errorf("4 CTAs: %d cycles, 1 CTA: %d; expected substantial latency hiding",
			c4.Cycles, c1.Cycles)
	}
}

func TestBankConflictsSlowExecution(t *testing.T) {
	// 32-way shared-memory bank conflicts serialize the issue slot.
	gen := func(degree int) func(int, int) []isa.WarpInst {
		return func(_, _ int) []isa.WarpInst {
			return build(func(b *kgen.Builder) {
				b.ALU(0)
				for i := 0; i < 64; i++ {
					b.LDS(1, isa.NoReg, kgen.Conflicting(0, degree))
				}
			})
		}
	}
	sNice, _ := newSM(config.Baseline(), DefaultParams(), funcSource(1, 1, gen(1)), 1)
	cNice, err := sNice.Run()
	if err != nil {
		t.Fatal(err)
	}
	sBad, _ := newSM(config.Baseline(), DefaultParams(), funcSource(1, 1, gen(32)), 1)
	cBad, err := sBad.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cBad.Cycles < cNice.Cycles+31*32 {
		t.Errorf("conflicted run %d vs clean %d: 31-cycle penalties missing",
			cBad.Cycles, cNice.Cycles)
	}
	if cBad.ConflictHist[4] == 0 {
		t.Error("conflict histogram should record >4-way conflicts")
	}
}

func TestTwoLevelSchedulerDeschedulesOnMiss(t *testing.T) {
	// 16 warps, each alternating a cold load and dependent ALU work: the
	// active set (8) must rotate through all 16 warps.
	gen := func(cta, warp int) []isa.WarpInst {
		return build(func(b *kgen.Builder) {
			base := uint32(warp) * 1 << 16
			for i := 0; i < 8; i++ {
				b.LDG(0, isa.NoReg, kgen.Coalesced(base+uint32(i)*8192, 4))
				b.ALU(1, 0) // forces a deschedule while the load is in flight
			}
		})
	}
	cfg := config.Baseline()
	cfg.CacheBytes = 0
	s, _ := newSM(cfg, DefaultParams(), funcSource(1, 16, gen), 1)
	c, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// All 16 warps must have completed all their instructions.
	if c.WarpInsts != 16*(8*2+1) {
		t.Errorf("WarpInsts = %d, want %d", c.WarpInsts, 16*(8*2+1))
	}
}

func TestSpilledTraceRunsSlower(t *testing.T) {
	// Identical program; one build with ample registers, one with 8.
	gen := func(regs int) func(int, int) []isa.WarpInst {
		return func(_, _ int) []isa.WarpInst {
			b := kgen.NewBuilder(kgen.Config{RegsAvail: regs, SpillBase: 1 << 24})
			for pass := 0; pass < 8; pass++ {
				for r := 0; r < 24; r++ {
					b.ALU(uint8(r), uint8((r+5)%24))
				}
			}
			return b.Finish()
		}
	}
	sFull, _ := newSM(config.Baseline(), DefaultParams(), funcSource(1, 1, gen(0)), 1)
	cFull, err := sFull.Run()
	if err != nil {
		t.Fatal(err)
	}
	sSpill, _ := newSM(config.Baseline(), DefaultParams(), funcSource(1, 1, gen(8)), 1)
	cSpill, err := sSpill.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cSpill.SpillInsts == 0 {
		t.Fatal("spill build produced no spill instructions")
	}
	if cSpill.Cycles <= cFull.Cycles {
		t.Errorf("spilled run %d cycles vs %d unspilled; spills should cost time",
			cSpill.Cycles, cFull.Cycles)
	}
	if cSpill.DRAMBytes() == 0 && cFull.DRAMBytes() == 0 {
		// Spill traffic is cacheable; at least the cold misses must show.
		t.Error("expected some DRAM traffic from spill fills")
	}
}

func TestRejectsOversubscription(t *testing.T) {
	gen := func(_, _ int) []isa.WarpInst { return build(func(b *kgen.Builder) { b.ALU(0) }) }
	if _, err := newSM(config.Baseline(), DefaultParams(), funcSource(1, 8, gen), 5); err == nil {
		t.Error("40 warps should exceed the 32-warp SM limit")
	}
	if _, err := newSM(config.Baseline(), DefaultParams(), funcSource(1, 0, gen), 1); err == nil {
		t.Error("zero warps per CTA should be rejected")
	}
	if _, err := newSM(config.Baseline(), DefaultParams(), funcSource(1, 1, gen), 0); err == nil {
		t.Error("zero resident CTAs should be rejected")
	}
}

// TestRejectsUnknownDesign: a design outside the enum has no outcome
// tables to replay, so it must fail at construction rather than in the
// cycle loop.
func TestRejectsUnknownDesign(t *testing.T) {
	gen := func(_, _ int) []isa.WarpInst { return build(func(b *kgen.Builder) { b.ALU(0) }) }
	cfg := config.Baseline()
	cfg.Design = config.FermiLike + 1
	for _, aggressive := range []bool{false, true} {
		p := DefaultParams()
		p.AggressiveScatter = aggressive
		_, err := newSM(cfg, p, funcSource(1, 1, gen), 1)
		if err == nil || !strings.Contains(err.Error(), "unknown design") {
			t.Errorf("aggressive=%v: NewSM accepted design %v (err %v)", aggressive, cfg.Design, err)
		}
	}
}

func TestArbitrationConflictsOnlyUnified(t *testing.T) {
	// Loads whose line slot collides with their MRF address register.
	gen := func(_, _ int) []isa.WarpInst {
		b := kgen.NewBuilder(kgen.Config{})
		b.ALU(0)
		b.ALU(4) // far apart so reads come from MRF
		for i := 0; i < 8; i++ {
			b.ALU(uint8(8 + i%4))
		}
		for i := 0; i < 16; i++ {
			b.LDG(1, 0, kgen.Broadcast(0)) // line 0 -> slot 0, r0 -> slot 0
			b.ALU(2, 1)
		}
		return b.Finish()
	}
	uniCfg := config.MemConfig{Design: config.Unified, RFBytes: 256 << 10, SharedBytes: 64 << 10, CacheBytes: 64 << 10}
	sU, _ := newSM(uniCfg, DefaultParams(), funcSource(1, 1, gen), 1)
	cU, err := sU.Run()
	if err != nil {
		t.Fatal(err)
	}
	sP, _ := newSM(config.Baseline(), DefaultParams(), funcSource(1, 1, gen), 1)
	cP, err := sP.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cU.ArbitrationConflicts == 0 {
		t.Error("unified design should record arbitration conflicts")
	}
	if cP.ArbitrationConflicts != 0 {
		t.Error("partitioned design cannot have arbitration conflicts")
	}
}

func TestRegisterHierarchyCountersPopulated(t *testing.T) {
	gen := func(_, _ int) []isa.WarpInst {
		return build(func(b *kgen.Builder) {
			for i := 0; i < 50; i++ {
				b.ALU(uint8(i%8), uint8((i+1)%8))
				b.ALU(uint8((i+2)%8), uint8(i%8))
			}
		})
	}
	s, _ := newSM(config.Baseline(), DefaultParams(), funcSource(1, 1, gen), 1)
	c, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.LRFReads == 0 || c.MRFReads == 0 {
		t.Errorf("register counters empty: LRF=%d MRF=%d", c.LRFReads, c.MRFReads)
	}
	if frac := c.MRFAccessFraction(); frac > 0.6 {
		t.Errorf("MRF fraction = %.2f; hierarchy should absorb most accesses", frac)
	}
}

func TestTexFetchLongLatency(t *testing.T) {
	gen := func(_, _ int) []isa.WarpInst {
		return build(func(b *kgen.Builder) {
			b.TEX(0, isa.NoReg, kgen.Broadcast(0))
			b.ALU(1, 0)
		})
	}
	s, _ := newSM(config.Baseline(), DefaultParams(), funcSource(1, 1, gen), 1)
	c, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles < 400 {
		t.Errorf("TEX-dependent run took %d cycles, want >= 400", c.Cycles)
	}
	if c.DRAMReadBytes == 0 {
		t.Error("texture fetches should consume DRAM bandwidth")
	}
}

func TestUncachedModePerThreadTransactions(t *testing.T) {
	// Without a cache, a coalesced 32-lane load costs 32 x 16 bytes
	// (the coalescing buffer is gone), and a broadcast costs one
	// transaction (the LSU still merges identical addresses).
	gen := func(_, _ int) []isa.WarpInst {
		return build(func(b *kgen.Builder) {
			b.ALU(0)
			b.LDG(1, 0, kgen.Coalesced(0, 4))
			b.ALU(2, 1)
			b.LDG(1, 0, kgen.Broadcast(4096))
			b.ALU(2, 1)
		})
	}
	cfg := config.Baseline()
	cfg.CacheBytes = 0
	s, _ := newSM(cfg, DefaultParams(), funcSource(1, 1, gen), 1)
	c, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.DRAMReadBytes != 32*16+16 {
		t.Errorf("uncached reads = %d bytes, want %d", c.DRAMReadBytes, 32*16+16)
	}
}

func TestSectoredFills(t *testing.T) {
	// A gather touching one 4-byte word in each of 32 lines fetches one
	// 32-byte sector per line, not full 128-byte lines.
	gen := func(_, _ int) []isa.WarpInst {
		return build(func(b *kgen.Builder) {
			b.ALU(0)
			b.LDG(1, 0, kgen.Coalesced(0, 128)) // 32 lines, 1 word each
			b.ALU(2, 1)
		})
	}
	s, _ := newSM(config.Baseline(), DefaultParams(), funcSource(1, 1, gen), 1)
	c, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.DRAMReadBytes != 32*32 {
		t.Errorf("sectored reads = %d bytes, want %d", c.DRAMReadBytes, 32*32)
	}
}

func TestWriteBackMode(t *testing.T) {
	// Write-back: a store miss allocates (fetches the line), re-writing
	// the same line adds no DRAM traffic, and the dirty line is reported
	// at the end.
	gen := func(_, _ int) []isa.WarpInst {
		return build(func(b *kgen.Builder) {
			b.ALU(0)
			b.STG(0, isa.NoReg, kgen.Coalesced(0, 4))
			b.STG(0, isa.NoReg, kgen.Coalesced(0, 4))
		})
	}
	p := DefaultParams()
	p.WriteBackCache = true
	s, _ := newSM(config.Baseline(), p, funcSource(1, 1, gen), 1)
	c, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.DRAMWriteBytes != 0 {
		t.Errorf("write-back store wrote %d bytes to DRAM", c.DRAMWriteBytes)
	}
	if c.DRAMReadBytes != 128 {
		t.Errorf("write-allocate should fetch the line once: %d bytes", c.DRAMReadBytes)
	}
	if c.DirtyLinesEnd != 1 {
		t.Errorf("DirtyLinesEnd = %d, want 1", c.DirtyLinesEnd)
	}
}

func TestStepAPIMatchesRun(t *testing.T) {
	gen := func(_, _ int) []isa.WarpInst {
		return build(func(b *kgen.Builder) {
			b.ALU(0)
			for i := 0; i < 30; i++ {
				b.LDG(1, 0, kgen.Coalesced(uint32(i)*4096, 4))
				b.ALU(2, 1)
			}
		})
	}
	run, _ := newSM(config.Baseline(), DefaultParams(), funcSource(2, 2, gen), 2)
	want, err := run.Run()
	if err != nil {
		t.Fatal(err)
	}
	stepped, _ := newSM(config.Baseline(), DefaultParams(), funcSource(2, 2, gen), 2)
	stepped.Start()
	for !stepped.Done() {
		if err := stepped.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got := stepped.Finish()
	if got.Cycles != want.Cycles || got.WarpInsts != want.WarpInsts {
		t.Errorf("Step loop diverged from Run: %d/%d vs %d/%d",
			got.Cycles, got.WarpInsts, want.Cycles, want.WarpInsts)
	}
}

func TestStartAtOffsetsClock(t *testing.T) {
	gen := func(_, _ int) []isa.WarpInst {
		return build(func(b *kgen.Builder) { b.ALU(0) })
	}
	s, _ := newSM(config.Baseline(), DefaultParams(), funcSource(1, 1, gen), 1)
	s.StartAt(1000)
	for !s.Done() {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if c := s.Finish(); c.Cycles < 1000 {
		t.Errorf("Cycles = %d, want >= the 1000-cycle start offset", c.Cycles)
	}
}

func TestMaskedInstructionThreadCount(t *testing.T) {
	gen := func(_, _ int) []isa.WarpInst {
		b := kgen.NewBuilder(kgen.Config{Mask: 0x0000FFFF}) // 16 active lanes
		b.ALU(0)
		b.STG(0, isa.NoReg, kgen.Coalesced(0, 4))
		return b.Finish()
	}
	s, _ := newSM(config.Baseline(), DefaultParams(), funcSource(1, 1, gen), 1)
	c, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 3 warp instructions (ALU, STG, EXIT) but only 16 lanes each.
	if c.ThreadInsts != 3*16 {
		t.Errorf("ThreadInsts = %d, want 48", c.ThreadInsts)
	}
	if c.DRAMWriteBytes != 16*4 {
		t.Errorf("masked store wrote %d bytes, want 64", c.DRAMWriteBytes)
	}
}

func TestMSHRLimitThrottlesMisses(t *testing.T) {
	// A miss flood with 2 MSHRs must run slower than with unbounded
	// MSHRs, and still complete correctly.
	gen := func(cta, warp int) []isa.WarpInst {
		return build(func(b *kgen.Builder) {
			base := uint32(cta)<<20 | uint32(warp)<<16
			b.ALU(0)
			for i := 0; i < 32; i++ {
				b.LDG(uint8(1+i%4), 0, kgen.Coalesced(base+uint32(i)*4096, 4))
			}
			b.ALU(5, 1)
		})
	}
	limited := DefaultParams()
	limited.MaxMSHRs = 2
	sL, _ := newSM(config.Baseline(), limited, funcSource(2, 4, gen), 2)
	cL, err := sL.Run()
	if err != nil {
		t.Fatal(err)
	}
	sU, _ := newSM(config.Baseline(), DefaultParams(), funcSource(2, 4, gen), 2)
	cU, err := sU.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cL.Cycles <= cU.Cycles {
		t.Errorf("2 MSHRs (%d cycles) should be slower than unbounded (%d)", cL.Cycles, cU.Cycles)
	}
	if cL.CTAsRetired != 2 || cL.WarpInsts != cU.WarpInsts {
		t.Error("MSHR-limited run lost work")
	}
}
