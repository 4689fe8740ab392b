package memsys

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
)

// naiveFootprint is the reference the footprint encoding is checked
// against: lines in first-lane order with their sector masks, and
// distinct addresses counted with a map.
func naiveFootprint(wi *isa.WarpInst) (lines []uint32, sectors []uint8, distinct, active int) {
	seen := map[uint32]bool{}
	for t := 0; t < isa.WarpSize; t++ {
		if wi.Mask&(1<<uint(t)) == 0 {
			continue
		}
		active++
		a := wi.Addr(t)
		if !seen[a] {
			seen[a] = true
			distinct++
		}
		line, sector := a/config.CacheLineBytes, uint8(1)<<(a%config.CacheLineBytes/SectorBytes)
		i := 0
		for i < len(lines) && lines[i] != line {
			i++
		}
		if i == len(lines) {
			lines = append(lines, line)
			sectors = append(sectors, 0)
		}
		sectors[i] |= sector
	}
	return lines, sectors, distinct, active
}

// randomGlobal draws a global-memory instruction whose lanes mix
// coalesced runs, broadcasts, and scattered lines, with a random mask.
func randomGlobal(r *rand.Rand) isa.WarpInst {
	var av isa.AddrVec
	base := r.Uint32() &^ 3
	for t := range av {
		switch r.IntN(4) {
		case 0:
			av[t] = base + uint32(t)*4
		case 1:
			av[t] = base
		case 2:
			av[t] = r.Uint32()
		default:
			av[t] = base + uint32(r.IntN(8))*config.CacheLineBytes + uint32(r.IntN(config.CacheLineBytes))
		}
	}
	mask := r.Uint32()
	if r.IntN(4) == 0 {
		mask = isa.FullMask
	}
	ops := []isa.Op{isa.OpLDG, isa.OpSTG, isa.OpTEX}
	wi := isa.WarpInst{Op: ops[r.IntN(len(ops))], Mask: mask}
	wi.SetAddrs(&av)
	return wi
}

// referenceFootprints is the per-instruction table the indexed one is
// checked against: every instruction of a flat trace gets its own
// footprint, empty unless it is a global-memory access with addresses.
func referenceFootprints(flat []isa.WarpInst) []Footprint {
	ref := make([]Footprint, len(flat))
	for i := range flat {
		if flat[i].Op.IsGlobal() && flat[i].HasAddrs() {
			ref[i] = AppendFootprint(nil, &flat[i])
		}
	}
	return ref
}

// checkTable requires table, built from the split form of flat, to hold
// the reference footprint of each global-memory instruction at its
// ordinal, and an entry for nothing else: the offsets number the
// global-memory instructions plus one.
func checkTable(t testing.TB, table *Footprints, code isa.WarpCode, flat []isa.WarpInst) {
	t.Helper()
	ref := referenceFootprints(flat)
	globals, words := 0, 0
	for i := range flat {
		if !flat[i].Op.IsGlobal() {
			continue
		}
		if g := code.Prog.Global(i); g != globals {
			t.Fatalf("inst %d (%v): ordinal %d, want %d", i, flat[i].Op, g, globals)
		}
		if got := table.At(globals); !slices.Equal(got, ref[i]) {
			t.Fatalf("inst %d (%v): footprint %v, want %v", i, flat[i].Op, got, ref[i])
		}
		globals++
		words += len(ref[i])
	}
	if code.Prog.Globals() != globals || len(table.off) != globals+1 {
		t.Fatalf("%d offsets, program counts %d globals; want %d globals", len(table.off), code.Prog.Globals(), globals)
	}
	if want := int64(4 * (globals + 1 + words)); table.Bytes() != want {
		t.Fatalf("Bytes() = %d, want %d", table.Bytes(), want)
	}
}

// TestFootprintMatchesNaive checks the packed encoding — lines, sectors,
// distinct addresses, active threads, lane-0 address — against the
// naive reference on random instructions, and that a table built from a
// trace returns each global-memory instruction's own footprint at its
// ordinal.
func TestFootprintMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	insts := make([]isa.WarpInst, 0, 600)
	for i := 0; i < 500; i++ {
		insts = append(insts, randomGlobal(r))
		if i%5 == 0 {
			insts = append(insts, isa.WarpInst{Op: isa.OpALU, Mask: isa.FullMask})
		}
	}
	code := isa.Split(insts)
	table := NewFootprints(code)
	checkTable(t, table, code, insts)
	for i := range insts {
		wi := &insts[i]
		if !wi.Op.IsGlobal() {
			continue
		}
		got := table.At(code.Prog.Global(i))
		if scratch := Footprint(AppendFootprint(nil, wi)); !reflect.DeepEqual(got, scratch) {
			t.Fatalf("inst %d: table %v, computed %v", i, got, scratch)
		}
		lines, sectors, distinct, active := naiveFootprint(wi)
		if got.Lines() != len(lines) || got.Distinct() != distinct || got.Active() != active || got.Addr0() != wi.Addr(0) {
			t.Fatalf("inst %d: %d lines, %d distinct, %d active, addr0 %#x; want %d, %d, %d, %#x",
				i, got.Lines(), got.Distinct(), got.Active(), got.Addr0(), len(lines), distinct, active, wi.Addr(0))
		}
		for j := range lines {
			if l, s := got.Line(j); l != lines[j] || s != sectors[j] {
				t.Fatalf("inst %d line %d: (%#x, %#x), want (%#x, %#x)", i, j, l, s, lines[j], sectors[j])
			}
		}
	}
}

// TestFootprintPairFormMatchesVector builds the footprint table of
// affine instructions from their split form, where isa.Split packs
// every vector into a (base, stride) pair, and requires the words the
// full vectors give. Strides are 0, 4, 128, wrapping "negative" ones
// and random ones; half the bases sit just below 2^32, so lanes wrap
// through zero.
func TestFootprintPairFormMatchesVector(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	full := make([]isa.WarpInst, 400)
	for i := range full {
		full[i] = randomGlobal(r)
		av := affineVec(r, r.Uint32(), r.Uint32())
		if i%2 == 0 {
			av = affineVec(r, ^uint32(0)-r.Uint32N(512), r.Uint32())
		}
		full[i].SetAddrs(&av)
	}
	code := isa.Split(full)
	var wi isa.WarpInst
	for i := range full {
		code.Decode(i, &wi)
		if _, _, vec := wi.AddrForm(); vec != nil {
			t.Fatalf("inst %d: an affine vector kept its full form", i)
		}
	}
	checkTable(t, NewFootprints(code), code, full)
}

// affineVec returns the vector base + lane*stride, its stride replaced
// by 0, 4, 128 or a wrapping "negative" one four times in five.
func affineVec(r *rand.Rand, base, stride uint32) isa.AddrVec {
	strides := []uint32{0, 4, 128, ^uint32(3), ^uint32(127)} // ^3 is -4
	if k := r.IntN(len(strides) + 1); k < len(strides) {
		stride = strides[k]
	}
	var av isa.AddrVec
	for l := range av {
		av[l] = base + uint32(l)*stride
	}
	return av
}

// FuzzFootprints builds the footprint table of random split code — ALU,
// LDS, STS, LDG, STG and TEX instructions with random masks, affine
// vectors (wrapping and zero strides included), irregular ones, and
// some global-memory instructions without addresses — and requires the
// reference footprint of every global-memory instruction at its ordinal,
// and no entry for any other instruction.
func FuzzFootprints(f *testing.F) {
	f.Add(uint64(1), uint8(40))
	f.Add(uint64(2), uint8(1))
	f.Add(uint64(3), uint8(200))
	ops := []isa.Op{isa.OpALU, isa.OpLDS, isa.OpSTS, isa.OpLDG, isa.OpSTG, isa.OpTEX}
	f.Fuzz(func(t *testing.T, seed uint64, size uint8) {
		r := rand.New(rand.NewPCG(seed, 5))
		flat := make([]isa.WarpInst, int(size))
		for i := range flat {
			flat[i] = isa.WarpInst{Op: ops[r.IntN(len(ops))], Mask: r.Uint32()}
			if r.IntN(4) == 0 {
				flat[i].Mask = isa.FullMask
			}
			if flat[i].Op == isa.OpALU || r.IntN(8) == 0 {
				continue
			}
			var av isa.AddrVec
			switch r.IntN(3) {
			case 0:
				av = affineVec(r, r.Uint32(), r.Uint32())
			case 1:
				av = affineVec(r, ^uint32(0)-r.Uint32N(512), r.Uint32())
			default:
				irregular := randomGlobal(r)
				av = irregular.Addrs()
			}
			flat[i].SetAddrs(&av)
		}
		code := isa.Split(flat)
		checkTable(t, NewFootprints(code), code, flat)
	})
}

// TestFootprintExtremes covers the encoding's bounds: the highest line
// of the address space, 32 distinct lines, and an empty mask.
func TestFootprintExtremes(t *testing.T) {
	top := ldg(func(l int) uint32 { return ^uint32(0) - uint32(l) })
	fp := Footprint(AppendFootprint(nil, top))
	if l, s := fp.Line(0); fp.Lines() != 1 || l != ^uint32(0)/config.CacheLineBytes || s != 0x8 {
		t.Errorf("top-of-memory load: %d lines, first (%#x, %#x)", fp.Lines(), l, s)
	}
	if fp.Distinct() != 32 || fp.Active() != 32 {
		t.Errorf("top-of-memory load: %d distinct, %d active, want 32, 32", fp.Distinct(), fp.Active())
	}
	gather := AppendFootprint(nil, ldg(func(l int) uint32 { return uint32(l) * 4096 }))
	if Footprint(gather).Lines() != 32 {
		t.Errorf("32-line gather: %d lines", Footprint(gather).Lines())
	}
	none := ldg(func(l int) uint32 { return 7 })
	none.Mask = 0
	if e := Footprint(AppendFootprint(nil, none)); e.Lines() != 0 || e.Distinct() != 0 || e.Active() != 0 || e.Addr0() != 7 {
		t.Errorf("empty mask: %d lines, %d distinct, %d active, addr0 %d", e.Lines(), e.Distinct(), e.Active(), e.Addr0())
	}
}
