package banks

import (
	"math/rand/v2"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
)

// naiveEvaluate is the reference FuzzEvaluate checks the model against:
// full per-bank tallies for every instruction and a quadratic dedupe over
// every granule recorded so far. It returns the outcome and the bank
// heat (per-bank accesses and serialized accesses beyond the first).
func naiveEvaluate(design config.Design, aggressive bool, wi *isa.WarpInst) (Outcome, [config.NumBanks]int64, [config.NumBanks]int64) {
	unified := design == config.Unified
	var reg, mem [config.NumBanks]int
	var port [config.NumClusters]int
	for _, src := range wi.Srcs {
		if src.Valid() && src.Space == isa.SpaceMRF {
			for c := 0; c < config.NumClusters; c++ {
				reg[c*config.BanksPerCluster+int(src.Reg)%config.BanksPerCluster]++
			}
		}
	}
	var granules []uint32
	var slotUsed [config.BanksPerCluster]bool
	if wi.Op.IsMemory() && wi.HasAddrs() {
		for t := 0; t < isa.WarpSize; t++ {
			if wi.Mask&(1<<uint(t)) == 0 {
				continue
			}
			addr := wi.Addr(t)
			g := addr / config.CacheLineBytes
			if wi.Op.IsShared() {
				g = addr / config.PartitionedShmemBankWidth
				if unified {
					g = addr / config.UnifiedBankWidth
				}
			}
			dup := false
			for _, h := range granules {
				dup = dup || h == g
			}
			if dup {
				continue
			}
			granules = append(granules, g)
			switch {
			case wi.Op.IsShared() && unified:
				cluster := int(g) % config.NumClusters
				mem[cluster*config.BanksPerCluster+int(addr/config.CacheLineBytes)%config.BanksPerCluster]++
				port[cluster]++
			case wi.Op.IsShared():
				mem[g%config.NumBanks]++
			case unified && !slotUsed[g%config.BanksPerCluster]:
				slotUsed[g%config.BanksPerCluster] = true
				for c := 0; c < config.NumClusters; c++ {
					mem[c*config.BanksPerCluster+int(g)%config.BanksPerCluster]++
				}
			}
		}
	}
	maxPer, arb := 1, false
	for b := 0; b < config.NumBanks; b++ {
		if unified {
			maxPer = max(maxPer, reg[b]+mem[b])
			arb = arb || (reg[b] > 0 && mem[b] > 0)
		} else {
			maxPer = max(maxPer, reg[b], mem[b])
		}
	}
	if unified && !aggressive {
		for _, p := range port {
			maxPer = max(maxPer, p)
		}
	}
	var access, conflict [config.NumBanks]int64
	for b := range access {
		if n := int64(reg[b] + mem[b]); n > 0 {
			access[b], conflict[b] = n, n-1
		}
	}
	return Outcome{MaxPerBank: uint8(maxPer), Arbitration: arb, MemAccesses: uint8(len(granules))}, access, conflict
}

// fuzzInst draws one warp instruction from the fuzzer's inputs: the
// opcode, mask and MRF/ORF/LRF operands come straight from them, and the
// address vector follows one of several patterns (unit stride, 16- and
// 128-byte strides, broadcast, a narrow window full of same-bank
// duplicates, fully random, none, or a "negative" stride that may wrap
// through zero) from a seeded stream. The vector is in full form.
func fuzzInst(op uint8, mask, regs uint32, spaces uint8, seed uint64, pattern uint8) isa.WarpInst {
	wi := isa.WarpInst{Op: isa.Op(op % 10), Mask: mask, Dst: isa.Operand{Reg: isa.NoReg}}
	for i := range wi.Srcs {
		r := uint8(regs >> (8 * i))
		if r >= isa.MaxRegs {
			r = isa.NoReg
		}
		wi.Srcs[i] = isa.Operand{Reg: r, Space: isa.RegSpace(spaces >> (2 * i) & 3)}
	}
	if pattern%8 == 6 {
		return wi
	}
	rng := rand.New(rand.NewPCG(seed, uint64(pattern)))
	base := rng.Uint32() >> 8
	var av isa.AddrVec
	for t := range av {
		switch pattern % 8 {
		case 0:
			av[t] = base + uint32(t)*4
		case 1:
			av[t] = base + uint32(t)*16
		case 2:
			av[t] = base + uint32(t)*128
		case 3:
			av[t] = base
		case 4:
			av[t] = base + uint32(rng.IntN(8))*config.NumBanks*4
		case 7:
			// Small bases wrap through zero; large ones do not.
			av[t] = base>>(seed>>8%24) - uint32(t)*uint32(4<<(seed%6))
		default:
			av[t] = rng.Uint32()
		}
	}
	wi.SetAddrs(&av)
	return wi
}

// packed returns copies of insts with their vectors packed by a Packer,
// so the affine ones are in pair form.
func packed(insts []isa.WarpInst) []isa.WarpInst {
	var p isa.Packer
	out := append([]isa.WarpInst(nil), insts...)
	slots := make([]int32, len(out))
	for i := range out {
		slots[i] = -1
		if out[i].HasAddrs() {
			_, _, vec := out[i].AddrForm()
			slots[i] = p.Add(vec)
		}
	}
	p.Pack(out, slots)
	return out
}

// FuzzEvaluate differentially checks Evaluate and HeatInto against
// naiveEvaluate for every design and scatter variant. Each input yields
// two instructions, each evaluated in full form and again packed, where
// an affine vector is a (base, stride) pair; all four run back to back
// on the same models, so scratch state one evaluation leaves behind
// cannot leak into the next.
func FuzzEvaluate(f *testing.F) {
	f.Add(uint8(isa.OpLDS), isa.FullMask, uint32(0x050101), uint8(0x15), uint64(1), uint8(0), uint8(2))
	f.Add(uint8(isa.OpALU), isa.FullMask, uint32(0x090501), uint8(0x15), uint64(2), uint8(6), uint8(4))
	f.Add(uint8(isa.OpLDG), uint32(0xF0F0F0F0), uint32(0x0202FF), uint8(0x25), uint64(3), uint8(5), uint8(1))
	f.Add(uint8(isa.OpSTS), uint32(0x0000FFFF), uint32(0x030201), uint8(0x3F), uint64(4), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, op uint8, mask, regs uint32, spaces uint8, seed uint64, p1, p2 uint8) {
		full := []isa.WarpInst{
			fuzzInst(op, mask, regs, spaces, seed, p1),
			fuzzInst(op/10, ^mask, regs>>8|regs<<24, spaces>>1, seed+1, p2),
		}
		pair := packed(full)
		for i, p := range []uint8{p1, p2} {
			if p%8 <= 3 || p%8 == 7 { // affine patterns
				if _, _, vec := pair[i].AddrForm(); vec != nil {
					t.Fatalf("pattern %d: packed inst %d kept a full vector", p%8, i)
				}
			}
		}
		insts := []isa.WarpInst{full[0], pair[0], full[1], pair[1]}
		for _, design := range []config.Design{config.Partitioned, config.Unified, config.FermiLike} {
			for _, aggressive := range []bool{false, true} {
				m := New(design)
				if aggressive {
					m = NewAggressive(design)
				}
				for i := range insts {
					wi := &insts[i]
					got := m.Evaluate(wi)
					var access, conflict [config.NumBanks]int64
					m.HeatInto(&access, &conflict)
					want, wantAccess, wantConflict := naiveEvaluate(design, aggressive, &full[i/2])
					if got != want || access != wantAccess || conflict != wantConflict {
						t.Fatalf("design=%v aggressive=%v %v (addrs %v, packed %v): outcome %+v heat %v/%v, want %+v heat %v/%v",
							design, aggressive, wi, wi.HasAddrs(), i%2 == 1, got, access, conflict, want, wantAccess, wantConflict)
					}
				}
			}
		}
	})
}
