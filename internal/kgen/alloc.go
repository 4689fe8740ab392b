package kgen

import "repro/internal/isa"

// allocate rewrites a spill-free trace for a physical register budget,
// inserting fill loads and spill stores against the warp's spill region.
//
// Eviction uses Belady's MIN rule (furthest next use), which is the right
// model for a compiler that sees the whole kernel: unlike an online LRU it
// does not collapse on cyclic reference patterns, so a kernel whose hot
// window is one register larger than the budget loses a few percent, not
// half its throughput — matching the gentle spill curves of Table 1.
// Registers that are dead (no further use) are evicted for free; dirty
// registers with remaining uses are spilled with a store and reloaded with
// a fill at their next use. Registers read before any definition are
// kernel inputs and need no fill. The rewritten trace is appended to
// out, which must not overlap insts.
func allocate(insts []isa.WarpInst, budget int, spillBase uint32, out []isa.WarpInst) []isa.WarpInst {
	if budget < minPhysRegs {
		budget = minPhysRegs
	}

	// Collect, per register, the ordered list of instruction indices that
	// use it (source or destination).
	var uses [isa.MaxRegs][]int32
	regsOf := func(wi *isa.WarpInst) [4]uint8 {
		return [4]uint8{wi.Srcs[0].Reg, wi.Srcs[1].Reg, wi.Srcs[2].Reg, wi.Dst.Reg}
	}
	for i := range insts {
		for _, r := range regsOf(&insts[i]) {
			if r != isa.NoReg {
				uses[r] = append(uses[r], int32(i))
			}
		}
	}

	const never = int32(1 << 30)
	var cursor [isa.MaxRegs]int // index into uses[r]
	nextUse := func(r uint8, after int32) int32 {
		u := uses[r]
		for cursor[r] < len(u) && u[cursor[r]] <= after {
			cursor[r]++
		}
		if cursor[r] == len(u) {
			return never
		}
		return u[cursor[r]]
	}

	var resident, dirty, defined, inCurrent [isa.MaxRegs]bool
	nResident := 0

	spillOp := func(op isa.Op, r uint8) isa.WarpInst {
		var addrs isa.AddrVec
		base := spillBase + uint32(r)*128
		for l := 0; l < isa.WarpSize; l++ {
			addrs[l] = base + uint32(l)*4
		}
		wi := isa.WarpInst{Op: op, Mask: insts[0].Mask, Addrs: &addrs, Spill: true}
		wi.Dst.Reg = isa.NoReg
		for i := range wi.Srcs {
			wi.Srcs[i].Reg = isa.NoReg
		}
		if op == isa.OpLDG {
			wi.Dst.Reg = r
		} else {
			wi.Srcs[0].Reg = r
		}
		return wi
	}

	evict := func(i int32) {
		// Furthest next use among resident registers not needed by the
		// current instruction.
		victim, worst := -1, int32(-1)
		for r := 0; r < isa.MaxRegs; r++ {
			if !resident[r] || inCurrent[r] {
				continue
			}
			nu := nextUse(uint8(r), i-1)
			if nu > worst {
				victim, worst = r, nu
			}
			if nu == never {
				break // cannot do better than a dead register
			}
		}
		if victim < 0 {
			panic("kgen: no evictable register (budget below operand count?)")
		}
		if dirty[victim] && worst != never && defined[victim] {
			out = append(out, spillOp(isa.OpSTG, uint8(victim)))
		}
		resident[victim] = false
		dirty[victim] = false
		nResident--
	}

	ensure := func(r uint8, i int32, isWrite bool) {
		if resident[r] {
			return
		}
		if nResident >= budget {
			evict(i)
		}
		resident[r] = true
		nResident++
		if !isWrite && defined[r] {
			out = append(out, spillOp(isa.OpLDG, r))
		}
	}

	for i := range insts {
		wi := insts[i]
		rs := regsOf(&wi)
		for _, r := range rs {
			if r != isa.NoReg {
				inCurrent[r] = true
			}
		}
		for _, s := range wi.Srcs {
			if s.Reg != isa.NoReg {
				ensure(s.Reg, int32(i), false)
			}
		}
		if wi.Dst.Reg != isa.NoReg {
			ensure(wi.Dst.Reg, int32(i), true)
			dirty[wi.Dst.Reg] = true
			defined[wi.Dst.Reg] = true
		}
		for _, r := range rs {
			if r != isa.NoReg {
				inCurrent[r] = false
			}
		}
		out = append(out, wi)
	}
	return out
}
