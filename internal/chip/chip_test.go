package chip

import (
	"reflect"
	"testing"

	"repro/internal/banks"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/kgen"
	"repro/internal/memsys"
	"repro/internal/sm"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// funcSource records a ctas x warps grid whose warps gen builds.
func funcSource(ctas, warps int, gen func(cta, warp int) []isa.WarpInst) *trace.Trace {
	t := &trace.Trace{CTAs: ctas, WarpsPerCTA: warps}
	for i := range ctas * warps {
		t.Warps = append(t.Warps, gen(i/warps, i%warps))
	}
	return t
}

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
	src := funcSource(16, 2, computeKernel)
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
	src := funcSource(10, 1, computeKernel)
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
	src := funcSource(2, 1, computeKernel)
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
	src := funcSource(32, 2, computeKernel)
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
	src := funcSource(16, 8, stream)
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
	src := funcSource(16, 4, shared)
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

// memoSource wraps a registry kernel's Source and records, per grid
// (cta, warp), how often the chip asked for its trace, bank outcomes and
// footprints.
type memoSource struct {
	*workloads.Source
	traces, outcomes, footprints map[[2]int]int
}

func (m *memoSource) WarpCode(cta, warp int) isa.WarpCode {
	m.traces[[2]int{cta, warp}]++
	return m.Source.WarpCode(cta, warp)
}

func (m *memoSource) WarpOutcomes(cta, warp int, d config.Design, aggressive bool) []banks.Outcome {
	m.outcomes[[2]int{cta, warp}]++
	return m.Source.WarpOutcomes(cta, warp, d, aggressive)
}

func (m *memoSource) WarpFootprints(cta, warp int) *memsys.Footprints {
	m.footprints[[2]int{cta, warp}]++
	return m.Source.WarpFootprints(cta, warp)
}

// wideGrid is a source's grid extended to ctas CTAs, in flat form.
type wideGrid struct {
	*workloads.Source
	ctas int
}

func (g wideGrid) Grid() (int, int) {
	_, warps := g.Source.Grid()
	return g.ctas, warps
}

// TestChipReplaysMemo: a chip's SMs must replay the wrapped source's
// memoized outcomes and footprints, asking for each grid warp's tables
// exactly once and under the same grid index as its trace, and the run
// must equal one over a recording of the source, whose tables are
// computed afresh from the flat trace.
func TestChipReplaysMemo(t *testing.T) {
	k, err := workloads.ByName("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	src := &workloads.Source{K: k}
	memo := &memoSource{Source: src, traces: map[[2]int]int{}, outcomes: map[[2]int]int{}, footprints: map[[2]int]int{}}
	run := func(s TraceSource) *Result {
		c, err := New(Config{NumSMs: 3, LaunchStagger: 5}, config.Baseline(), sm.DefaultParams(), Kernel{Name: k.Name, Source: s, ResidentCTAs: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	got, want := run(memo), run(trace.Record(src))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("memo replay changed the chip run: %+v vs %+v", got.Total, want.Total)
	}
	ctas, warps := src.Grid()
	if len(memo.traces) != ctas*warps {
		t.Fatalf("chip launched %d grid warps, want %d", len(memo.traces), ctas*warps)
	}
	for key, n := range memo.traces {
		if n != 1 || memo.outcomes[key] != 1 || memo.footprints[key] != 1 {
			t.Errorf("grid warp %v: %d trace, %d outcome, %d footprint requests; want 1 each",
				key, n, memo.outcomes[key], memo.footprints[key])
		}
	}
}

// TestReplicatedForwardsMemo: a Replicated grid must forward the wrapped
// source's memoized outcomes and footprints for every warp it launches,
// and the chip run must equal one over a recording of the replicated
// grid.
func TestReplicatedForwardsMemo(t *testing.T) {
	k, err := workloads.ByName("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	src := &workloads.Source{K: k}
	memo := &memoSource{Source: src, traces: map[[2]int]int{}, outcomes: map[[2]int]int{}, footprints: map[[2]int]int{}}
	const sms = 3
	run := func(s TraceSource) *Result {
		c, err := New(Config{NumSMs: sms}, config.Baseline(), sm.DefaultParams(),
			Kernel{Name: k.Name, Source: s, ResidentCTAs: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ctas, warps := src.Grid()
	got := run(&Replicated{Source: memo, Copies: sms})
	want := run(trace.Record(wideGrid{src, sms * ctas}))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("forwarded memo tables changed the replicated run: %+v vs %+v", got.Total, want.Total)
	}
	if len(memo.traces) != sms*ctas*warps {
		t.Fatalf("chip launched %d warps, want %d", len(memo.traces), sms*ctas*warps)
	}
	for key := range memo.traces {
		if memo.outcomes[key] != 1 || memo.footprints[key] != 1 {
			t.Errorf("warp %v: %d outcome, %d footprint requests; want 1 each",
				key, memo.outcomes[key], memo.footprints[key])
		}
	}
}
