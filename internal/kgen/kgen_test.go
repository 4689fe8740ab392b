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
		if !wi.HasAddrs() {
			t.Fatal("spill op without addresses")
		}
		base := wi.Addr(0)
		if base < 1<<20 {
			t.Fatalf("spill address %#x below SpillBase", base)
		}
		for l := 1; l < isa.WarpSize; l++ {
			if wi.Addr(l) != base+uint32(l)*4 {
				t.Fatalf("spill lane %d not coalesced: %#x vs base %#x", l, wi.Addr(l), base)
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
}

// flatInst is an instruction with its addresses expanded to all 32
// lanes, whichever form the trace keeps them in.
type flatInst struct {
	wi    isa.WarpInst // with its addresses removed
	has   bool
	addrs isa.AddrVec
}

// snapshot copies a trace with every address expanded, so a later write
// to the original's arena cannot reach the copy.
func snapshot(trace []isa.WarpInst) []flatInst {
	out := make([]flatInst, len(trace))
	for i := range trace {
		f := &out[i]
		f.wi, f.has = trace[i], trace[i].HasAddrs()
		f.wi.SetAddrs(nil)
		for l := 0; f.has && l < isa.WarpSize; l++ {
			f.addrs[l] = trace[i].Addr(l)
		}
	}
	return out
}

// buildMixed emits a loop of global and shared loads and stores and ALU
// work over 12 registers, with addresses offset by base; with regsAvail
// 6 it also gets spill code.
func buildMixed(regsAvail, iters int, base uint32) *Builder {
	b := NewBuilder(Config{RegsAvail: regsAvail, SpillBase: 1 << 20})
	for i := 0; i < iters; i++ {
		r := uint8(i % 12)
		b.LDG(r, uint8((i+3)%12), Coalesced(base+uint32(i%7)*128, 4))
		b.LDS(uint8((i+1)%12), isa.NoReg, Conflicting(base+uint32(i%3)*4, 2))
		b.ALU(uint8((i+2)%12), r, uint8((i+5)%12), uint8((i+7)%12))
		b.STS(uint8((i+2)%12), isa.NoReg, Broadcast(base+uint32(i)*4))
	}
	return b
}

// TestFinishReturnsExactPrivateTraces: Finish hands out exact-size
// traces that later builds — which reuse the pooled emit, spill and
// vector buffers, here from several goroutines at once and with other
// addresses — never overwrite.
func TestFinishReturnsExactPrivateTraces(t *testing.T) {
	build := func(regsAvail int, base uint32) []isa.WarpInst {
		return buildMixed(regsAvail, 300, base).Finish()
	}
	for _, regs := range []int{0, 6} {
		first := build(regs, 0)
		if cap(first) != len(first) {
			t.Errorf("regs %d: trace len %d cap %d, want an exact-size slice", regs, len(first), cap(first))
		}
		want := snapshot(first)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				base := uint32(g+1) << 16
				ref := snapshot(build(regs, base))
				for i := 0; i < 20; i++ {
					if got := snapshot(build(regs, base)); !reflect.DeepEqual(got, ref) {
						t.Errorf("regs %d: rebuild differs from the first build", regs)
						return
					}
				}
			}()
		}
		wg.Wait()
		if !reflect.DeepEqual(snapshot(first), want) {
			t.Errorf("regs %d: a later build overwrote an earlier trace", regs)
		}
	}
	if countOps(build(6, 0))[isa.OpSTG] == 0 {
		t.Error("regs 6 built no spill stores; the test no longer covers spill vectors")
	}
}

// TestFinishPacksAddressVectors: within a finished trace equal
// irregular vectors share one arena slot, affine vectors are pairs in
// the slots after them, each distinct pair once in order of first use,
// and the arena's length is exactly irregular + ⌈affine/16⌉ slots.
func TestFinishPacksAddressVectors(t *testing.T) {
	for _, regs := range []int{0, 6} {
		b := buildMixed(regs, 400, 0)
		trace := b.Finish()
		arena := b.arena
		inArena := make(map[*isa.AddrVec]int, len(arena))
		for k := range arena {
			inArena[&arena[k]] = k
		}
		shared := make(map[isa.AddrVec]*isa.AddrVec)
		var pairs [][2]uint32
		seenPair := make(map[[2]uint32]bool)
		for i := range trace {
			if !trace[i].HasAddrs() {
				continue
			}
			base, stride, v := trace[i].AddrForm()
			if v == nil {
				if p := [2]uint32{base, stride}; !seenPair[p] {
					seenPair[p] = true
					pairs = append(pairs, p)
				}
				continue
			}
			if p, ok := shared[*v]; ok {
				if p != v {
					t.Fatalf("regs %d: inst %d does not share its vector with an equal earlier one", regs, i)
				}
				continue
			}
			if k, ok := inArena[v]; !ok || k != len(shared) {
				t.Fatalf("regs %d: inst %d's vector is not the next arena slot in first-use order", regs, i)
			}
			shared[*v] = v
		}
		want := len(shared) + (len(pairs)+isa.PairsPerSlot-1)/isa.PairsPerSlot
		if len(arena) != want || cap(arena) != len(arena) {
			t.Errorf("regs %d: arena len %d cap %d, want both %d (%d irregular, %d affine)",
				regs, len(arena), cap(arena), want, len(shared), len(pairs))
		}
		if len(pairs) == 0 || len(shared) == 0 {
			t.Fatalf("regs %d: %d affine and %d irregular vectors; the test needs both", regs, len(pairs), len(shared))
		}
		for k, p := range pairs {
			s := &arena[len(shared)+k/isa.PairsPerSlot]
			if j := 2 * (k % isa.PairsPerSlot); s[j] != p[0] || s[j+1] != p[1] {
				t.Fatalf("regs %d: pair %d is (%#x, %#x) in the arena, want (%#x, %#x)", regs, k, s[j], s[j+1], p[0], p[1])
			}
		}
	}
}

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// TestBuildAllocsIndependentOfLength: a warmed build allocates only what
// its trace keeps (the builder, the trace and its vector arena), so the
// allocation count does not grow with the number of memory instructions
// or spills.
func TestBuildAllocsIndependentOfLength(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	build := func(memInsts int) func() {
		return func() { buildMixed(6, memInsts/3, 0).Finish() }
	}
	short, long := build(100), build(10000)
	long() // warm the pools to the longer build's size
	nLong := testing.AllocsPerRun(20, long)
	nShort := testing.AllocsPerRun(20, short)
	if nShort != 3 || nLong != 3 {
		t.Errorf("a warmed build allocates %v times at 100 memory instructions and %v at 10,000, want 3 (builder, trace, arena) at both", nShort, nLong)
	}
}
