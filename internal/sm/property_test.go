package sm

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/kgen"
	"repro/internal/stats"
)

// randomKernel emits a random but well-formed kernel body (balanced
// barriers, bounded registers and addresses).
func randomKernel(seed uint64, length int) func(cta, warp int) []isa.WarpInst {
	return func(cta, warp int) []isa.WarpInst {
		rng := rand.New(rand.NewPCG(seed, uint64(cta)<<16|uint64(warp)))
		b := kgen.NewBuilder(kgen.Config{RegsAvail: 8 + int(rng.Uint32N(24))})
		b.ALU(0)
		b.ALU(1, 0)
		bars := 0
		for i := 0; i < length; i++ {
			dst := uint8(rng.Uint32N(24))
			src := uint8(rng.Uint32N(24))
			switch rng.Uint32N(8) {
			case 0, 1, 2:
				b.ALU(dst, src)
			case 3:
				b.SFU(dst, src)
			case 4:
				b.LDG(dst, src, kgen.Random(rng, 0, 1<<20, 4))
			case 5:
				b.STG(src, isa.NoReg, kgen.Coalesced(rng.Uint32N(1<<18)*4, 4))
			case 6:
				b.LDS(dst, src, kgen.CoalescedMod(rng.Uint32N(4096), 4, 8192))
			case 7:
				b.STS(src, isa.NoReg, kgen.CoalescedMod(rng.Uint32N(4096), 4, 8192))
			}
			// Occasional barrier at a deterministic position so every
			// warp of the CTA emits the same count.
			if i%17 == 16 {
				b.Bar()
				bars++
			}
		}
		return b.Finish()
	}
}

// TestSimulationInvariants runs random kernels under random configurations
// and checks structural invariants of every run.
func TestSimulationInvariants(t *testing.T) {
	f := func(seed uint64, warpsRaw, ctasRaw, designRaw, lenRaw uint8) bool {
		warps := 1 + int(warpsRaw)%4
		ctas := 1 + int(ctasRaw)%6
		resident := 1 + int(ctasRaw)%2
		length := 20 + int(lenRaw)%100
		design := []config.Design{config.Partitioned, config.Unified}[int(designRaw)%2]
		cfg := config.MemConfig{
			Design:      design,
			RFBytes:     128 << 10,
			SharedBytes: 64 << 10,
			CacheBytes:  64 << 10,
		}
		if resident*warps > config.MaxWarpsPerSM {
			resident = 1
		}
		src := funcSource(ctas, warps, randomKernel(seed, length))
		s, err := newSM(cfg, DefaultParams(), src, resident)
		if err != nil {
			return false
		}
		c, err := s.Run()
		if err != nil {
			return false
		}
		// Every CTA retires; every instruction is issued exactly once.
		if c.CTAsRetired != int64(ctas) {
			return false
		}
		// Cycles bound the instruction count (single issue).
		if c.Cycles < c.WarpInsts/int64(min(resident*warps, 8))-1 && c.Cycles < c.WarpInsts {
			return false
		}
		// The conflict histogram covers every instruction.
		var histTotal int64
		for _, v := range c.ConflictHist {
			histTotal += v
		}
		if histTotal != c.WarpInsts {
			return false
		}
		// DRAM byte accounting is non-negative and misses imply traffic.
		if c.DRAMReadBytes < 0 || c.DRAMWriteBytes < 0 {
			return false
		}
		if c.CacheMisses > 0 && c.DRAMReadBytes == 0 {
			return false
		}
		// Load probes classify as hit or miss; store probes (write-through
		// tag touches) do not, so hits+misses never exceed probes.
		if c.CacheHits+c.CacheMisses > c.CacheProbes {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDeterministicAcrossRuns is a property test over random kernels and
// parameter variations: running the same kernel/config twice from fresh
// state must yield bit-identical counters — every field, not just cycles.
// This is the foundation the parallel experiment engine's serial-identical
// guarantee is built on; any hidden global state shows up here before it
// can become a race.
func TestDeterministicAcrossRuns(t *testing.T) {
	f := func(seed uint64, lenRaw, mshrRaw uint8) bool {
		length := 30 + int(lenRaw)%100
		params := DefaultParams()
		// Exercise the bounded-MSHR stall path too: its eviction choice
		// must not depend on map iteration order.
		params.MaxMSHRs = []int{0, 1, 2, 8}[int(mshrRaw)%4]
		src := funcSource(4, 2, randomKernel(seed, length))
		run := func() *stats.Counters {
			s, err := newSM(config.Baseline(), params, src, 2)
			if err != nil {
				t.Fatal(err)
			}
			c, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		return reflect.DeepEqual(run(), run())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
