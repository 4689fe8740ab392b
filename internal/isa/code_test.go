package isa

import (
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"
)

// TestInstSize pins the hot record at 16 bytes: programs hold one per
// instruction, and the trace cache's interning hashes its bytes, which
// is sound only while the record has no padding.
func TestInstSize(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Inst{}) = %d, want 16", got)
	}
}

// randomInst draws an instruction of any op class, with random operands,
// placement, flags and mask. It has addresses when hasAddrs is set.
func randomInst(rng *rand.Rand, hasAddrs bool, pool []AddrVec) WarpInst {
	operand := func() Operand {
		if rng.IntN(4) == 0 {
			return Operand{Reg: NoReg}
		}
		return Operand{Reg: uint8(rng.IntN(MaxRegs)), Space: RegSpace(rng.IntN(4))}
	}
	wi := WarpInst{
		Op:          Op(rng.IntN(int(numOps))),
		Dst:         operand(),
		DstMRFWrite: rng.IntN(2) == 0,
		Srcs:        [3]Operand{operand(), operand(), operand()},
		Spill:       rng.IntN(8) == 0,
		Mask:        FullMask,
	}
	if rng.IntN(3) == 0 {
		wi.Mask = rng.Uint32() | 1
	}
	if hasAddrs {
		wi.SetAddrs(&pool[rng.IntN(len(pool))])
	}
	return wi
}

// hotStream returns the hot records of a flat trace.
func hotStream(flat []WarpInst) []Inst {
	out := make([]Inst, len(flat))
	for i := range flat {
		out[i] = flat[i].Hot()
	}
	return out
}

// FuzzSplit converts the flat traces of several warps to split form and
// interns their programs in one ProgramSet. The warps mostly run one op
// stream with their own addresses, irregular and affine, drawn from a
// small pool so that equal vectors recur; some change one instruction,
// or which instructions have addresses. Decoding must give back every field and
// every lane, and warps whose streams are equal, and only they, must
// share one program.
func FuzzSplit(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(30))
	f.Add(uint64(2), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(7), uint8(120))
	f.Fuzz(func(t *testing.T, seed uint64, warps, size uint8) {
		rng := rand.New(rand.NewPCG(seed, 11))
		n := int(size)%150 + 1
		base := make([]WarpInst, n)
		mem := make([]bool, n)
		for i := range base {
			mem[i] = rng.IntN(3) == 0
			base[i] = randomInst(rng, false, nil)
		}
		var set ProgramSet
		var flats [][]WarpInst
		var codes []WarpCode
		for w := 0; w < int(warps%8)+1; w++ {
			pool := make([]AddrVec, rng.IntN(20)+1)
			for k := range pool {
				pool[k] = randomVec(rng)
			}
			flat := make([]WarpInst, n)
			hasAddrs := slices.Clone(mem)
			changed := -1
			if rng.IntN(3) == 0 {
				changed = rng.IntN(n)
				if rng.IntN(2) == 0 {
					hasAddrs[changed] = !hasAddrs[changed]
				}
			}
			for i := range flat {
				flat[i] = base[i]
				if i == changed {
					flat[i] = randomInst(rng, false, nil)
				}
				if hasAddrs[i] {
					flat[i].SetAddrs(&pool[rng.IntN(len(pool))])
				}
			}
			code := Split(flat)
			code.Prog, _ = set.Intern(code.Prog.Insts)
			if code.Len() != n {
				t.Fatalf("warp %d: %d instructions, want %d", w, code.Len(), n)
			}
			decoded := code.AppendFlat(nil)
			for i := range flat {
				got, want := &decoded[i], &flat[i]
				if got.Hot() != want.Hot() {
					t.Fatalf("warp %d inst %d: decoded %v, want %v", w, i, got, want)
				}
				if !want.HasAddrs() {
					continue
				}
				for l := 0; l < WarpSize; l++ {
					if got.Addr(l) != want.Addr(l) {
						t.Fatalf("warp %d inst %d lane %d: address %#x, want %#x", w, i, l, got.Addr(l), want.Addr(l))
					}
				}
			}
			for v := range flats {
				equal := slices.Equal(hotStream(flats[v]), hotStream(flat))
				if shared := codes[v].Prog == code.Prog; shared != equal {
					t.Fatalf("warps %d and %d: equal streams %v, shared program %v", v, w, equal, shared)
				}
			}
			flats, codes = append(flats, flat), append(codes, code)
		}
	})
}

// TestRegAccessesCountOperands checks a program's packed register-file
// access counts against a per-operand count, over every operand that
// names or omits a register in each space, known or not, with and
// without the MRF write-through of a non-MRF result.
func TestRegAccessesCountOperands(t *testing.T) {
	var operands []Operand
	for _, reg := range []uint8{3, NoReg} {
		for space := SpaceNone; space <= SpaceLRF+1; space++ {
			operands = append(operands, Operand{Reg: reg, Space: space})
		}
	}
	var insts []Inst
	for _, a := range operands {
		for _, b := range operands {
			for _, c := range operands {
				for _, dst := range operands {
					for _, mrf := range []bool{false, true} {
						insts = append(insts, Inst{Op: OpALU, Dst: dst, DstMRFWrite: mrf, Srcs: [3]Operand{a, b, c}})
					}
				}
			}
		}
	}
	p := NewProgram(insts)
	for i := range insts {
		var reads, writes [SpaceLRF + 1]int64
		for _, src := range insts[i].Srcs {
			if src.Valid() && src.Space <= SpaceLRF {
				reads[src.Space]++
			}
		}
		if dst := insts[i].Dst; dst.Valid() {
			if dst.Space <= SpaceLRF {
				writes[dst.Space]++
			}
			if insts[i].DstMRFWrite && dst.Space != SpaceMRF {
				writes[SpaceMRF]++
			}
		}
		r := p.RegAccesses(i)
		for s := SpaceMRF; s <= SpaceLRF; s++ {
			if r.Reads(s) != reads[s] || r.Writes(s) != writes[s] {
				t.Fatalf("%+v: %v reads/writes = %d/%d, want %d/%d", insts[i], s, r.Reads(s), r.Writes(s), reads[s], writes[s])
			}
		}
	}
}
