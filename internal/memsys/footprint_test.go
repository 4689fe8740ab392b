package memsys

import (
	"math/rand/v2"
	"reflect"
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

// TestFootprintMatchesNaive checks the packed encoding — lines, sectors,
// distinct addresses, active threads, lane-0 address — against the
// naive reference on random instructions, and that a table built from a
// trace returns each instruction's own footprint.
func TestFootprintMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	insts := make([]isa.WarpInst, 0, 600)
	for i := 0; i < 500; i++ {
		insts = append(insts, randomGlobal(r))
		if i%5 == 0 {
			insts = append(insts, isa.WarpInst{Op: isa.OpALU, Mask: isa.FullMask})
		}
	}
	table := NewFootprints(insts)
	m := New(Config{}, nil, nil)
	for i := range insts {
		wi := &insts[i]
		got := table.At(i)
		if !wi.Op.IsGlobal() {
			if len(got) != 0 {
				t.Fatalf("inst %d (%v): footprint %v, want empty", i, wi.Op, got)
			}
			continue
		}
		if scratch := m.Footprint(wi); !reflect.DeepEqual(got, scratch) {
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

// TestFootprintPairFormMatchesVector computes the footprints of affine
// instructions twice, once with each vector in full form and once
// packed by an isa.Packer into (base, stride) pairs, and requires the
// same words. Strides are 0, 4, 128, wrapping "negative" ones and random
// ones; half the bases sit just below 2^32, so lanes wrap through zero.
func TestFootprintPairFormMatchesVector(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	strides := []uint32{0, 4, 128, ^uint32(3), ^uint32(127)} // ^3 is -4
	full := make([]isa.WarpInst, 400)
	slots := make([]int32, len(full))
	var p isa.Packer
	for i := range full {
		base, stride := r.Uint32(), r.Uint32()
		if i%2 == 0 {
			base = ^uint32(0) - r.Uint32N(512)
		}
		if k := r.IntN(len(strides) + 1); k < len(strides) {
			stride = strides[k]
		}
		var av isa.AddrVec
		for l := range av {
			av[l] = base + uint32(l)*stride
		}
		full[i] = randomGlobal(r)
		full[i].SetAddrs(&av)
		slots[i] = p.Add(&av)
	}
	pair := append([]isa.WarpInst(nil), full...)
	p.Pack(pair, slots)
	want, got := NewFootprints(full), NewFootprints(pair)
	for i := range full {
		if _, _, vec := pair[i].AddrForm(); vec != nil {
			t.Fatalf("inst %d: an affine vector kept its full form", i)
		}
		if !reflect.DeepEqual(got.At(i), want.At(i)) {
			t.Fatalf("inst %d: pair form %v, full form %v", i, got.At(i), want.At(i))
		}
	}
}

// TestFootprintExtremes covers the encoding's bounds: the highest line
// of the address space, 32 distinct lines, and an empty mask.
func TestFootprintExtremes(t *testing.T) {
	top := ldg(func(l int) uint32 { return ^uint32(0) - uint32(l) })
	fp := Footprint(appendFootprint(nil, top))
	if l, s := fp.Line(0); fp.Lines() != 1 || l != ^uint32(0)/config.CacheLineBytes || s != 0x8 {
		t.Errorf("top-of-memory load: %d lines, first (%#x, %#x)", fp.Lines(), l, s)
	}
	if fp.Distinct() != 32 || fp.Active() != 32 {
		t.Errorf("top-of-memory load: %d distinct, %d active, want 32, 32", fp.Distinct(), fp.Active())
	}
	gather := appendFootprint(nil, ldg(func(l int) uint32 { return uint32(l) * 4096 }))
	if Footprint(gather).Lines() != 32 {
		t.Errorf("32-line gather: %d lines", Footprint(gather).Lines())
	}
	none := ldg(func(l int) uint32 { return 7 })
	none.Mask = 0
	if e := Footprint(appendFootprint(nil, none)); e.Lines() != 0 || e.Distinct() != 0 || e.Active() != 0 || e.Addr0() != 7 {
		t.Errorf("empty mask: %d lines, %d distinct, %d active, addr0 %d", e.Lines(), e.Distinct(), e.Active(), e.Addr0())
	}
}
