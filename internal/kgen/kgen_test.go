package kgen

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// countOps tallies the trace by op class.
func countOps(trace []isa.WarpInst) map[isa.Op]int {
	m := make(map[isa.Op]int)
	for i := range trace {
		m[trace[i].Op]++
	}
	return m
}

func TestFinishAppendsExit(t *testing.T) {
	b := NewBuilder(Config{})
	b.ALU(0)
	trace := b.Finish()
	if trace[len(trace)-1].Op != isa.OpEXIT {
		t.Error("Finish must terminate the trace with EXIT")
	}
}

func TestNoSpillsWhenBudgetSuffices(t *testing.T) {
	b := NewBuilder(Config{RegsAvail: 16})
	for i := 0; i < 100; i++ {
		b.ALU(uint8(i%16), uint8((i+1)%16))
	}
	trace := b.Finish()
	for i := range trace {
		if trace[i].Spill {
			t.Fatal("no spill expected with sufficient registers")
		}
	}
}

func TestSpillsGrowAsBudgetShrinks(t *testing.T) {
	demand := 32
	emit := func(regsAvail int) int {
		b := NewBuilder(Config{RegsAvail: regsAvail})
		// Round-robin writes then reads over `demand` registers: a
		// working set larger than the budget must thrash.
		for pass := 0; pass < 4; pass++ {
			for r := 0; r < demand; r++ {
				b.ALU(uint8(r), uint8((r+1)%demand))
			}
		}
		spills := 0
		for _, wi := range b.Finish() {
			if wi.Spill {
				spills++
			}
		}
		return spills
	}
	s32, s24, s18 := emit(32), emit(24), emit(18)
	if s32 != 0 {
		t.Errorf("full budget spilled %d times", s32)
	}
	if !(s18 > s24 && s24 > 0) {
		t.Errorf("spills should grow as budget shrinks: 18->%d 24->%d", s18, s24)
	}
}

func TestSpillAddressesAreCoalescedPerRegister(t *testing.T) {
	b := NewBuilder(Config{RegsAvail: 6, SpillBase: 1 << 20})
	for r := 0; r < 12; r++ {
		b.ALU(uint8(r))
	}
	for r := 0; r < 12; r++ {
		b.ALU(12, uint8(r)) // read them all back
	}
	trace := b.Finish()
	sawSpill := false
	for _, wi := range trace {
		if !wi.Spill {
			continue
		}
		sawSpill = true
		if wi.Addrs == nil {
			t.Fatal("spill op without addresses")
		}
		base := wi.Addrs[0]
		if base < 1<<20 {
			t.Fatalf("spill address %#x below SpillBase", base)
		}
		for l := 1; l < isa.WarpSize; l++ {
			if wi.Addrs[l] != base+uint32(l)*4 {
				t.Fatalf("spill lane %d not coalesced: %#x vs base %#x", l, wi.Addrs[l], base)
			}
		}
		if base%128 != 0 {
			t.Fatalf("spill slot %#x not line aligned", base)
		}
	}
	if !sawSpill {
		t.Fatal("expected spill traffic")
	}
}

func TestFillLoadsPrecedeUse(t *testing.T) {
	b := NewBuilder(Config{RegsAvail: 6})
	b.ALU(0) // r0: next use is the very last -> Belady's first victim
	for r := 1; r < 10; r++ {
		b.ALU(uint8(r))
		b.ALU(uint8(r), uint8(r))
	}
	for r := 1; r < 10; r++ {
		b.ALU(11, uint8(r)) // keep r1..r9 nearer than r0
	}
	b.ALU(10, 0) // r0 was spilled; a fill must appear before this ALU
	trace := b.Finish()
	spilled := false
	for i := range trace {
		if trace[i].Spill && trace[i].Op == isa.OpSTG && trace[i].Srcs[0].Reg == 0 {
			spilled = true
		}
	}
	if !spilled {
		t.Fatal("dirty r0 with a future use must be spilled with a store")
	}
	for i := range trace {
		wi := &trace[i]
		if wi.Op == isa.OpALU && wi.Srcs[0].Reg == 0 {
			// Scan backwards: a fill of r0 must appear after its last
			// eviction and before this use (other allocator traffic may
			// sit in between).
			for j := i - 1; j >= 0; j-- {
				p := &trace[j]
				if p.Spill && p.Op == isa.OpLDG && p.Dst.Reg == 0 {
					return
				}
				if !p.Spill {
					break
				}
			}
			t.Fatalf("instruction %d uses r0 without a preceding fill", i)
		}
	}
	t.Fatal("consumer of r0 not found")
}

func TestPlacementLRF(t *testing.T) {
	b := NewBuilder(Config{})
	b.ALU(0)    // r0 produced
	b.ALU(1, 0) // consumed immediately -> LRF
	trace := b.Finish()
	if trace[0].Dst.Space != isa.SpaceLRF {
		t.Errorf("producer placed in %v, want LRF", trace[0].Dst.Space)
	}
	if trace[1].Srcs[0].Space != isa.SpaceLRF {
		t.Errorf("consumer reads %v, want LRF", trace[1].Srcs[0].Space)
	}
}

func TestPlacementORF(t *testing.T) {
	b := NewBuilder(Config{})
	b.ALU(0)    // r0
	b.ALU(1)    // intervening result
	b.ALU(2, 0) // distance 2 -> ORF
	trace := b.Finish()
	if trace[0].Dst.Space != isa.SpaceORF {
		t.Errorf("producer placed in %v, want ORF", trace[0].Dst.Space)
	}
	if trace[2].Srcs[0].Space != isa.SpaceORF {
		t.Errorf("consumer reads %v, want ORF", trace[2].Srcs[0].Space)
	}
}

func TestPlacementMRFBeyondWindow(t *testing.T) {
	b := NewBuilder(Config{})
	b.ALU(0)
	for i := 0; i < ORFWindow; i++ { // ORFWindow intervening results
		b.ALU(uint8(1 + i))
	}
	b.ALU(10, 0) // too far -> MRF
	trace := b.Finish()
	if trace[0].Dst.Space != isa.SpaceMRF {
		t.Errorf("far-use producer placed in %v, want MRF", trace[0].Dst.Space)
	}
	last := trace[len(trace)-2] // before EXIT
	if last.Srcs[0].Space != isa.SpaceMRF {
		t.Errorf("far consumer reads %v, want MRF", last.Srcs[0].Space)
	}
}

func TestPlacementMixedNearAndFarUses(t *testing.T) {
	b := NewBuilder(Config{})
	b.ALU(0)
	b.ALU(1, 0) // near use (distance 1)
	for i := 0; i < 6; i++ {
		b.ALU(uint8(2 + i))
	}
	b.ALU(10, 0) // far use
	trace := b.Finish()
	if trace[0].Dst.Space != isa.SpaceLRF || !trace[0].DstMRFWrite {
		t.Errorf("mixed-use producer: space=%v mrfWrite=%v, want LRF+MRF",
			trace[0].Dst.Space, trace[0].DstMRFWrite)
	}
}

func TestBarrierEndsRegion(t *testing.T) {
	b := NewBuilder(Config{})
	b.ALU(0)
	b.Bar()
	b.ALU(1, 0) // across a barrier -> MRF
	trace := b.Finish()
	if trace[2].Srcs[0].Space != isa.SpaceMRF {
		t.Errorf("cross-barrier read from %v, want MRF", trace[2].Srcs[0].Space)
	}
	if !trace[0].DstMRFWrite {
		t.Error("value live across barrier must write through to MRF")
	}
}

func TestLoadConsumptionEndsRegion(t *testing.T) {
	b := NewBuilder(Config{})
	b.LDG(0, isa.NoReg, Coalesced(0, 4))
	b.ALU(1)    // independent work in the shadow of the load
	b.ALU(2, 1) // would be LRF...
	b.ALU(3, 0) // consumes the load -> deschedule point
	b.ALU(4, 1) // r1 now in a new region -> MRF
	trace := b.Finish()
	if trace[0].Dst.Space != isa.SpaceMRF {
		t.Errorf("load result placed in %v, want MRF", trace[0].Dst.Space)
	}
	if trace[3].Srcs[0].Space != isa.SpaceMRF {
		t.Errorf("load consumer reads %v, want MRF", trace[3].Srcs[0].Space)
	}
	if trace[2].Srcs[0].Space != isa.SpaceLRF {
		t.Errorf("in-shadow consumer reads %v, want LRF", trace[2].Srcs[0].Space)
	}
	if trace[4].Srcs[0].Space != isa.SpaceMRF {
		t.Errorf("post-deschedule consumer reads %v, want MRF", trace[4].Srcs[0].Space)
	}
}

// TestMRFAccessReduction checks the headline effect the unified design
// depends on: on typical dependent ALU code, the hierarchy serves well
// over half of operand accesses without touching the MRF.
func TestMRFAccessReduction(t *testing.T) {
	b := NewBuilder(Config{})
	// A chain-heavy body resembling compiled arithmetic code.
	for i := 0; i < 200; i++ {
		r := uint8(i % 8)
		b.ALU(r, uint8((i+7)%8))
		b.ALU(uint8((i+1)%8), r)
	}
	trace := b.Finish()
	mrf, total := 0, 0
	for _, wi := range trace {
		for _, s := range wi.Srcs {
			if !s.Valid() {
				continue
			}
			total++
			if s.Space == isa.SpaceMRF {
				mrf++
			}
		}
		if wi.Dst.Valid() {
			total++
			if wi.Dst.Space == isa.SpaceMRF || wi.DstMRFWrite {
				mrf++
			}
		}
	}
	if total == 0 {
		t.Fatal("no operands")
	}
	frac := float64(mrf) / float64(total)
	if frac > 0.5 {
		t.Errorf("MRF operand fraction = %.2f, want < 0.5 (paper: ~40%%)", frac)
	}
}

func TestEmitAfterFinishPanics(t *testing.T) {
	b := NewBuilder(Config{})
	b.Finish()
	defer func() {
		if recover() == nil {
			t.Error("emit after Finish should panic")
		}
	}()
	b.ALU(0)
}

func TestTooManySourcesPanics(t *testing.T) {
	b := NewBuilder(Config{})
	defer func() {
		if recover() == nil {
			t.Error("4-source instruction should panic")
		}
	}()
	b.ALU(0, 1, 2, 3, 4)
}

// TestEverySrcHasSpace property-checks that the placement pass leaves no
// operand unresolved, under random programs with and without spilling.
func TestEverySrcHasSpace(t *testing.T) {
	f := func(seed int64, budget uint8, ops []uint16) bool {
		b := NewBuilder(Config{RegsAvail: 6 + int(budget)%32})
		for _, o := range ops {
			dst := uint8(o % 24)
			src := uint8((o >> 5) % 24)
			switch o % 5 {
			case 0, 1:
				b.ALU(dst, src)
			case 2:
				b.SFU(dst, src, uint8((o>>10)%24))
			case 3:
				b.LDG(dst, src, Coalesced(uint32(o)*4, 4))
			case 4:
				b.STS(src, isa.NoReg, Coalesced(uint32(o)*4, 4))
			}
		}
		trace := b.Finish()
		for _, wi := range trace {
			for _, s := range wi.Srcs {
				if s.Reg != isa.NoReg && s.Space == isa.SpaceNone {
					return false
				}
			}
			if wi.Dst.Reg != isa.NoReg && wi.Dst.Space == isa.SpaceNone {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAddrHelpers(t *testing.T) {
	co := Coalesced(100, 4)
	if co[0] != 100 || co[31] != 100+31*4 {
		t.Errorf("Coalesced wrong: %v, %v", co[0], co[31])
	}
	br := Broadcast(64)
	for _, a := range br {
		if a != 64 {
			t.Fatal("Broadcast should be uniform")
		}
	}
	cf := Conflicting(0, 4)
	if cf[0] != 0 || cf[1] != 128 || cf[4] != 4 {
		t.Errorf("Conflicting(4): %v %v %v", cf[0], cf[1], cf[4])
	}
	idx := make([]uint32, isa.WarpSize)
	for i := range idx {
		idx[i] = uint32(i * 2)
	}
	ga := Gather(1000, 4, idx)
	if ga[3] != 1000+6*4 {
		t.Errorf("Gather lane 3 = %d", ga[3])
	}
}

// TestFinishReturnsExactPrivateTraces: Finish hands out exact-size
// traces that later builds — which reuse the pooled emit and spill
// buffers, here from several goroutines at once — never overwrite.
func TestFinishReturnsExactPrivateTraces(t *testing.T) {
	build := func(regsAvail int) []isa.WarpInst {
		b := NewBuilder(Config{RegsAvail: regsAvail, SpillBase: 1 << 20})
		for i := 0; i < 300; i++ {
			b.ALU(uint8(i%12), uint8((i+5)%12), uint8((i+7)%12))
		}
		return b.Finish()
	}
	for _, regs := range []int{0, 6} {
		first := build(regs)
		if cap(first) != len(first) {
			t.Errorf("regs %d: trace len %d cap %d, want an exact-size slice", regs, len(first), cap(first))
		}
		want := append([]isa.WarpInst(nil), first...)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if got := build(regs); !reflect.DeepEqual(got, want) {
						t.Errorf("regs %d: rebuild differs from the first build", regs)
						return
					}
				}
			}()
		}
		wg.Wait()
		if !reflect.DeepEqual(first, want) {
			t.Errorf("regs %d: a later build overwrote an earlier trace", regs)
		}
	}
}
