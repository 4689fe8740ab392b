package banks

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/kgen"
)

func sharedInst(op isa.Op, addrs *isa.AddrVec) *isa.WarpInst {
	wi := &isa.WarpInst{Op: op, Mask: isa.FullMask}
	wi.SetAddrs(addrs)
	wi.Dst.Reg = isa.NoReg
	for i := range wi.Srcs {
		wi.Srcs[i].Reg = isa.NoReg
	}
	return wi
}

func withMRFSrcs(wi *isa.WarpInst, regs ...uint8) *isa.WarpInst {
	for i, r := range regs {
		wi.Srcs[i] = isa.Operand{Reg: r, Space: isa.SpaceMRF}
	}
	return wi
}

func TestALUConflictFreeRegisters(t *testing.T) {
	// Registers 0,1,2 map to distinct banks (mod 4) in every cluster.
	wi := sharedInst(isa.OpALU, nil)
	withMRFSrcs(wi, 0, 1, 2)
	for _, d := range []config.Design{config.Partitioned, config.Unified} {
		out := New(d).Evaluate(wi)
		if out.MaxPerBank != 1 || out.ExtraCycles() != 0 {
			t.Errorf("%v: distinct banks conflicted: %+v", d, out)
		}
	}
}

func TestALURegisterBankConflict(t *testing.T) {
	// r1 and r5 share bank 1 (mod 4) -> 2 accesses in both designs.
	wi := sharedInst(isa.OpALU, nil)
	withMRFSrcs(wi, 1, 5)
	for _, d := range []config.Design{config.Partitioned, config.Unified} {
		out := New(d).Evaluate(wi)
		if out.MaxPerBank != 2 || out.ExtraCycles() != 1 {
			t.Errorf("%v: want 2-way register conflict, got %+v", d, out)
		}
	}
}

func TestORFOperandsDontTouchBanks(t *testing.T) {
	wi := sharedInst(isa.OpALU, nil)
	wi.Srcs[0] = isa.Operand{Reg: 1, Space: isa.SpaceLRF}
	wi.Srcs[1] = isa.Operand{Reg: 5, Space: isa.SpaceORF}
	out := New(config.Unified).Evaluate(wi)
	if out.MaxPerBank != 1 {
		t.Errorf("hierarchy operands must not create bank traffic: %+v", out)
	}
}

func TestSharedCoalescedConflictFree(t *testing.T) {
	// Lane i reads word i: stride 4 covers 32 distinct banks (partitioned)
	// or 8 granules in 8 distinct clusters (unified).
	addrs := kgen.Coalesced(0, 4)
	for _, d := range []config.Design{config.Partitioned, config.Unified} {
		out := New(d).Evaluate(sharedInst(isa.OpLDS, &addrs))
		if out.ExtraCycles() != 0 {
			t.Errorf("%v: coalesced shared access conflicted: %+v", d, out)
		}
	}
}

func TestSharedBroadcastSingleAccess(t *testing.T) {
	addrs := kgen.Broadcast(64)
	for _, d := range []config.Design{config.Partitioned, config.Unified} {
		out := New(d).Evaluate(sharedInst(isa.OpLDS, &addrs))
		if out.MaxPerBank != 1 || out.MemAccesses != 1 {
			t.Errorf("%v: broadcast should be one access: %+v", d, out)
		}
	}
}

func TestSharedStride128Partitioned(t *testing.T) {
	// All 32 lanes hit bank 0 in the partitioned design: 32-way conflict.
	addrs := kgen.Conflicting(0, 32)
	out := New(config.Partitioned).Evaluate(sharedInst(isa.OpLDS, &addrs))
	if out.MaxPerBank != 32 || out.ExtraCycles() != 31 {
		t.Errorf("want 32-way conflict, got %+v", out)
	}
}

func TestSharedScatterWorseInUnified(t *testing.T) {
	// A random scatter coalesces to at most 32 partitioned banks but only
	// 8 unified cluster ports: the unified penalty must be >= partitioned.
	rng := rand.New(rand.NewPCG(1, 2))
	worseSomewhere := false
	for trial := 0; trial < 50; trial++ {
		addrs := kgen.Random(rng, 0, 16<<10, 4)
		wi := sharedInst(isa.OpLDS, &addrs)
		p := New(config.Partitioned).Evaluate(wi)
		u := New(config.Unified).Evaluate(wi)
		if u.MaxPerBank < (p.MaxPerBank+3)/4 {
			t.Fatalf("unified conflict %d impossible given partitioned %d", u.MaxPerBank, p.MaxPerBank)
		}
		if u.MaxPerBank > p.MaxPerBank {
			worseSomewhere = true
		}
	}
	if !worseSomewhere {
		t.Error("unified 8-port restriction never produced a worse conflict on random scatters")
	}
}

func TestStride16UnifiedPortConflict(t *testing.T) {
	// Stride 16: partitioned uses banks 0,4,8,... conflict-free within a
	// 128-byte row then wraps (4 lanes per bank over 32 lanes at stride 16
	// -> 512 bytes span banks 0..31 evenly: lane i hits bank (i*16/4)%32 =
	// (4i)%32, so 8 distinct banks with 4 accesses each).
	// Unified: lane i granule = i, cluster = i%8 -> 4 distinct granules per
	// cluster -> 4-way port conflict.
	addrs := kgen.Coalesced(0, 16)
	p := New(config.Partitioned).Evaluate(sharedInst(isa.OpLDS, &addrs))
	u := New(config.Unified).Evaluate(sharedInst(isa.OpLDS, &addrs))
	if p.MaxPerBank != 4 {
		t.Errorf("partitioned stride-16: MaxPerBank = %d, want 4", p.MaxPerBank)
	}
	if u.MaxPerBank != 4 {
		t.Errorf("unified stride-16: MaxPerBank = %d, want 4", u.MaxPerBank)
	}
}

func TestGlobalLoadPartitionedNoBankConflict(t *testing.T) {
	// Cache lines span all 32 partitioned banks: by construction no bank
	// conflicts (serialization happens on the tag port instead).
	addrs := kgen.Coalesced(0, 128) // 32 distinct lines
	out := New(config.Partitioned).Evaluate(sharedInst(isa.OpLDG, &addrs))
	if out.ExtraCycles() != 0 {
		t.Errorf("partitioned global load should not bank-conflict: %+v", out)
	}
	if out.MemAccesses != 32 {
		t.Errorf("MemAccesses = %d, want 32 lines", out.MemAccesses)
	}
}

func TestGlobalLoadUnifiedMultipleLinesNoSelfConflict(t *testing.T) {
	// Distinct lines are serialized by the tag port (modeled in the SM),
	// so they never bank-conflict with each other within an instruction —
	// whether they share a bank slot (lines 0 and 4) or not (0 and 1).
	var addrs isa.AddrVec
	for l := 0; l < 16; l++ {
		addrs[l] = 0
	}
	for l := 16; l < 32; l++ {
		addrs[l] = 4 * 128
	}
	out := New(config.Unified).Evaluate(sharedInst(isa.OpLDG, &addrs))
	if out.MaxPerBank != 1 || out.MemAccesses != 2 {
		t.Errorf("slot-sharing lines: %+v, want MaxPerBank 1, 2 lines", out)
	}
	for l := 16; l < 32; l++ {
		addrs[l] = 128
	}
	out = New(config.Unified).Evaluate(sharedInst(isa.OpLDG, &addrs))
	if out.MaxPerBank != 1 || out.MemAccesses != 2 {
		t.Errorf("distinct-slot lines: %+v, want MaxPerBank 1, 2 lines", out)
	}
}

func TestArbitrationConflictUnifiedOnly(t *testing.T) {
	// A global load whose line lands in bank slot 0 while reading r0/r4
	// (also slot 0) must arbitrate in the unified design.
	addrs := kgen.Broadcast(0) // line 0 -> slot 0
	wi := sharedInst(isa.OpLDG, &addrs)
	withMRFSrcs(wi, 0)
	u := New(config.Unified).Evaluate(wi)
	if !u.Arbitration {
		t.Errorf("unified: want arbitration conflict, got %+v", u)
	}
	if u.MaxPerBank != 2 {
		t.Errorf("unified: MaxPerBank = %d, want 2 (reg + line)", u.MaxPerBank)
	}
	p := New(config.Partitioned).Evaluate(wi)
	if p.Arbitration || p.ExtraCycles() != 0 {
		t.Errorf("partitioned: registers and cache are separate structures: %+v", p)
	}
}

func TestNoArbitrationWhenSlotsDiffer(t *testing.T) {
	addrs := kgen.Broadcast(0) // line 0 -> slot 0
	wi := sharedInst(isa.OpLDG, &addrs)
	withMRFSrcs(wi, 1) // slot 1
	u := New(config.Unified).Evaluate(wi)
	if u.Arbitration || u.ExtraCycles() != 0 {
		t.Errorf("disjoint slots should not arbitrate: %+v", u)
	}
}

func TestMaskedLanesIgnored(t *testing.T) {
	addrs := kgen.Conflicting(0, 32)
	wi := sharedInst(isa.OpLDS, &addrs)
	wi.Mask = 0x1 // one active lane
	out := New(config.Partitioned).Evaluate(wi)
	if out.MaxPerBank != 1 || out.MemAccesses != 1 {
		t.Errorf("masked conflict: %+v", out)
	}
}

func TestEvaluateNeverReturnsZeroMax(t *testing.T) {
	f := func(op uint8, seed uint64, mask uint32) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		ops := []isa.Op{isa.OpALU, isa.OpLDS, isa.OpSTS, isa.OpLDG, isa.OpSTG}
		addrs := kgen.Random(rng, 0, 1<<20, 4)
		wi := sharedInst(ops[int(op)%len(ops)], &addrs)
		wi.Mask = mask
		for _, d := range []config.Design{config.Partitioned, config.Unified} {
			out := New(d).Evaluate(wi)
			if out.MaxPerBank < 1 {
				return false
			}
			if out.MaxPerBank > isa.WarpSize+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestOutcomePackedWorstCase: the trace cache holds one Outcome per
// instruction and variant, so it stays three bytes, and the largest
// tallies the model can produce — three MRF reads and 32 shared
// granules all landing in one unified bank — must round-trip.
func TestOutcomePackedWorstCase(t *testing.T) {
	if size := unsafe.Sizeof(Outcome{}); size != 3 {
		t.Errorf("Outcome is %d bytes, want 3", size)
	}
	var addrs isa.AddrVec
	for l := range addrs {
		// Granule 8*4*l: cluster 0, bank slot 0, distinct per lane.
		addrs[l] = uint32(l) * 4 * config.CacheLineBytes
	}
	wi := withMRFSrcs(sharedInst(isa.OpLDS, &addrs), 0, 4, 8)
	out := New(config.Unified).Evaluate(wi)
	want := Outcome{MaxPerBank: 35, Arbitration: true, MemAccesses: 32}
	if out != want {
		t.Errorf("worst case = %+v, want %+v", out, want)
	}
	if got := out.ExtraCycles(); got != 34 {
		t.Errorf("ExtraCycles = %d, want 34", got)
	}
}

// TestVariantIndexes: every design and scatter variant gets its own
// index in [0, Variants), and a design outside the enum gets none.
func TestVariantIndexes(t *testing.T) {
	seen := make(map[int]bool)
	for _, d := range []config.Design{config.Partitioned, config.Unified, config.FermiLike} {
		for _, aggressive := range []bool{false, true} {
			v := Variant(d, aggressive)
			if v < 0 || v >= Variants || seen[v] {
				t.Errorf("Variant(%v, %v) = %d: out of range or taken", d, aggressive, v)
			}
			seen[v] = true
		}
	}
	if v := Variant(config.FermiLike+1, false); v != -1 {
		t.Errorf("Variant of an unknown design = %d, want -1", v)
	}
}
