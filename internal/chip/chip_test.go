package chip

import (
	"testing"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/kgen"
	"repro/internal/sm"
)

// funcSource adapts a closure into a TraceSource.
type funcSource struct {
	ctas, warps int
	gen         func(cta, warp int) []isa.WarpInst
}

func (f funcSource) Grid() (int, int)                       { return f.ctas, f.warps }
func (f funcSource) WarpTrace(cta, warp int) []isa.WarpInst { return f.gen(cta, warp) }

// computeKernel emits a latency-tolerant mixed kernel.
func computeKernel(cta, warp int) []isa.WarpInst {
	b := kgen.NewBuilder(kgen.Config{})
	base := uint32(cta)<<16 | uint32(warp)<<12
	b.ALU(0)
	for i := 0; i < 32; i++ {
		b.ALU(1, 0)
		b.LDG(2, 1, kgen.Coalesced(base+uint32(i)*512, 4))
		b.ALU(3, 2)
		b.ALU(0, 3)
	}
	return b.Finish()
}

func TestChipRunsAllCTAs(t *testing.T) {
	src := funcSource{ctas: 16, warps: 2, gen: computeKernel}
	c, err := New(Config{NumSMs: 4}, config.Baseline(), sm.DefaultParams(), Kernel{Source: src, ResidentCTAs: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.CTAsRetired != 16 {
		t.Errorf("retired %d CTAs, want 16", res.Total.CTAsRetired)
	}
	if len(res.PerSM) != 4 {
		t.Errorf("PerSM has %d entries", len(res.PerSM))
	}
	for i, c := range res.PerSM {
		if c.CTAsRetired != 4 {
			t.Errorf("SM %d retired %d CTAs, want 4 (round-robin deal)", i, c.CTAsRetired)
		}
	}
	if res.Cycles <= 0 {
		t.Error("no cycles recorded")
	}
}

func TestChipUnevenGrid(t *testing.T) {
	src := funcSource{ctas: 10, warps: 1, gen: computeKernel}
	c, err := New(Config{NumSMs: 4}, config.Baseline(), sm.DefaultParams(), Kernel{Source: src, ResidentCTAs: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.CTAsRetired != 10 {
		t.Errorf("retired %d CTAs, want 10", res.Total.CTAsRetired)
	}
}

func TestChipRejectsBadConfigs(t *testing.T) {
	src := funcSource{ctas: 2, warps: 1, gen: computeKernel}
	if _, err := New(Config{NumSMs: 0}, config.Baseline(), sm.DefaultParams(), Kernel{Source: src, ResidentCTAs: 1}); err == nil {
		t.Error("zero SMs should be rejected")
	}
	if _, err := New(Config{NumSMs: 4}, config.Baseline(), sm.DefaultParams(), Kernel{Source: src, ResidentCTAs: 1}); err == nil {
		t.Error("grid smaller than the SM count should be rejected")
	}
}

// TestConservativeOrdering checks the min-clock interleave: requests reach
// the shared DRAM system nearly in timestamp order.
func TestConservativeOrdering(t *testing.T) {
	src := funcSource{ctas: 32, warps: 2, gen: computeKernel}
	c, err := New(Config{NumSMs: 8}, config.Baseline(), sm.DefaultParams(), Kernel{Source: src, ResidentCTAs: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	reads := res.DRAMReadBytes / 32 // rough request count
	if reads > 0 && res.OutOfOrder > reads/10 {
		t.Errorf("%d of ~%d requests out of order; conservative interleave broken",
			res.OutOfOrder, reads)
	}
}

// TestSharedBandwidthContention checks that SMs actually share the memory
// system: a chip whose aggregate bandwidth equals one SM's private share
// must be slower per SM than private channels of the same per-SM share.
func TestSharedBandwidthContention(t *testing.T) {
	stream := func(cta, warp int) []isa.WarpInst {
		b := kgen.NewBuilder(kgen.Config{})
		base := uint32(cta)<<18 | uint32(warp)<<14
		b.ALU(0)
		for i := 0; i < 64; i++ {
			b.LDG(1, 0, kgen.Coalesced(base+uint32(i)*128, 4))
			b.ALU(2, 1) // consume: the warp waits for every line
		}
		return b.Finish()
	}
	// Enough warps per SM that DRAM latency is fully hidden and only
	// bandwidth can bind.
	src := funcSource{ctas: 16, warps: 8, gen: stream}
	// Four SMs sharing a single 8 B/cycle channel: one quarter of the
	// usual per-SM share.
	starved, err := New(Config{
		NumSMs: 4,
		Mem:    dram.SystemConfig{Channels: 1, BytesPerCyclePerChannel: 8, LatencyCycles: 400},
	}, config.Baseline(), sm.DefaultParams(), Kernel{Source: src, ResidentCTAs: 4})
	if err != nil {
		t.Fatal(err)
	}
	starvedRes, err := starved.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Four SMs with the full aggregate share (8 B/cycle each).
	fed, err := New(Config{
		NumSMs: 4,
		Mem:    dram.SystemConfig{Channels: 4, BytesPerCyclePerChannel: 8, LatencyCycles: 400},
	}, config.Baseline(), sm.DefaultParams(), Kernel{Source: src, ResidentCTAs: 4})
	if err != nil {
		t.Fatal(err)
	}
	fedRes, err := fed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if starvedRes.Cycles < fedRes.Cycles*2 {
		t.Errorf("bandwidth starvation not visible: starved=%d fed=%d cycles",
			starvedRes.Cycles, fedRes.Cycles)
	}
}

func TestSystemChannelRouting(t *testing.T) {
	sys := dram.NewSystem(dram.SystemConfig{Channels: 4, BytesPerCyclePerChannel: 8, LatencyCycles: 100, InterleaveBytes: 256})
	// Addresses 0 and 256 land on different channels: no bus serialization.
	d0 := sys.Read(0, 0, 128)
	d1 := sys.Read(0, 256, 128)
	if d0 != d1 {
		t.Errorf("independent channels should complete together: %d vs %d", d0, d1)
	}
	// Same channel serializes.
	d2 := sys.Read(0, 1024, 128)
	if d2 <= d0 {
		t.Errorf("same-channel read should queue: %d vs %d", d2, d0)
	}
	if sys.Channels() != 4 {
		t.Errorf("Channels() = %d", sys.Channels())
	}
	if sys.ReadBytes() != 384 {
		t.Errorf("ReadBytes() = %d", sys.ReadBytes())
	}
}

// TestL2AbsorbsCrossSMSharing: when every SM reads the same hot region,
// a chip-level L2 serves the re-fetches that otherwise each go to DRAM.
func TestL2AbsorbsCrossSMSharing(t *testing.T) {
	shared := func(cta, warp int) []isa.WarpInst {
		b := kgen.NewBuilder(kgen.Config{})
		b.ALU(0)
		for i := 0; i < 64; i++ {
			// Every warp of every SM sweeps the same 256KB table: far too
			// big for the 64KB L1s, ideal for a chip L2.
			b.LDG(1, 0, kgen.Coalesced(uint32(i)*4096, 4))
			b.ALU(2, 1)
		}
		return b.Finish()
	}
	src := funcSource{ctas: 16, warps: 4, gen: shared}
	base := dram.SystemConfig{Channels: 4, BytesPerCyclePerChannel: 8, LatencyCycles: 400}
	noL2, err := New(Config{NumSMs: 4, Mem: base}, config.Baseline(), sm.DefaultParams(), Kernel{Source: src, ResidentCTAs: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := noL2.Run()
	if err != nil {
		t.Fatal(err)
	}
	withCfg := base
	withCfg.L2Bytes = 512 << 10
	withL2, err := New(Config{NumSMs: 4, Mem: withCfg}, config.Baseline(), sm.DefaultParams(), Kernel{Source: src, ResidentCTAs: 2})
	if err != nil {
		t.Fatal(err)
	}
	bRes, err := withL2.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("no L2: %d cycles %d dram bytes; with L2: %d cycles %d dram bytes",
		a.Cycles, a.DRAMReadBytes, bRes.Cycles, bRes.DRAMReadBytes)
	if bRes.DRAMReadBytes >= a.DRAMReadBytes {
		t.Error("L2 should cut DRAM reads for cross-SM shared data")
	}
	if bRes.Cycles >= a.Cycles {
		t.Error("L2 should speed up the shared-table sweep")
	}
}
