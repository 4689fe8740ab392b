package isa

import (
	"hash/maphash"
	"math/bits"
	"slices"
	"unsafe"
)

// Inst is the hot record of one warp instruction: every field of a
// WarpInst but its addresses, in 16 bytes. A warp's program is a slice
// of them (see Program); the timing core's scoreboard check and issue
// read only these fields, so warps whose streams differ only in their
// addresses can share one program.
type Inst struct {
	Op          Op
	Dst         Operand
	DstMRFWrite bool
	Srcs        [3]Operand
	Spill       bool
	// hasAddrs records that the instruction's addresses sit in its
	// warp's operand table. It fills the byte before Mask, which keeps
	// the record free of padding.
	hasAddrs bool
	Mask     uint32
}

// Hot returns the instruction's hot record.
func (wi *WarpInst) Hot() Inst {
	return Inst{
		Op:          wi.Op,
		Dst:         wi.Dst,
		DstMRFWrite: wi.DstMRFWrite,
		Srcs:        wi.Srcs,
		Spill:       wi.Spill,
		hasAddrs:    wi.addrs != nil,
		Mask:        wi.Mask,
	}
}

// HasAddrs reports whether the instruction carries per-thread addresses.
func (in *Inst) HasAddrs() bool { return in.hasAddrs }

// ActiveThreads returns the number of active threads in the instruction.
func (in *Inst) ActiveThreads() int { return bits.OnesCount32(in.Mask) }

// RegAccesses counts one instruction's register-file accesses, per
// space of the MRF/ORF/LRF hierarchy, in 2-bit fields: operand reads at
// bit 2*(space-1), at most three, and result writes 6 bits above, at
// most one. A result whose cheapest level is not the MRF but which also
// writes the MRF (DstMRFWrite) counts one write in each. Operands in
// other spaces count nothing.
type RegAccesses uint16

// regWrites is the bit offset of the write fields.
const regWrites = 6

// Reads returns the number of operand reads from space s.
func (r RegAccesses) Reads(s RegSpace) int64 { return int64(r >> (2 * (s - 1)) & 3) }

// Writes returns the number of result writes to space s.
func (r RegAccesses) Writes(s RegSpace) int64 {
	return int64(r >> (regWrites + 2*(s-1)) & 3)
}

// RegAccesses returns the instruction's register-file accesses.
func (in *Inst) RegAccesses() RegAccesses {
	var r RegAccesses
	for _, src := range in.Srcs {
		if src.Valid() && src.Space <= SpaceLRF {
			r += 1 << (2 * (src.Space - 1))
		}
	}
	if in.Dst.Valid() {
		if in.Dst.Space <= SpaceLRF {
			r += 1 << (regWrites + 2*(in.Dst.Space-1))
		}
		if in.DstMRFWrite && in.Dst.Space != SpaceMRF {
			r += 1 << regWrites
		}
	}
	return r
}

// AddrRef locates one instruction's addresses in its warp's arena: a
// slot, and a pair within it in WarpInst's encoding (0 for a full
// vector, k for pair k-1 of the slot).
type AddrRef uint32

// pairBits holds a pair index up to PairsPerSlot.
const pairBits = 5

func newAddrRef(slot int, pair uint8) AddrRef {
	if slot >= 1<<(32-pairBits) {
		panic("isa: address arena too large for an AddrRef")
	}
	return AddrRef(slot<<pairBits) | AddrRef(pair)
}

func (r AddrRef) slot() int   { return int(r >> pairBits) }
func (r AddrRef) pair() uint8 { return uint8(r & (1<<pairBits - 1)) }

// Program is a warp's instruction stream without its addresses: the hot
// records, each instruction's register-file accesses, for each
// instruction with addresses the index of its reference in a warp's
// Operands, and for each global-memory instruction its ordinal among
// them, which indexes a warp's footprint table (memsys.Footprints).
// Warps whose streams differ only in their addresses share one Program.
// It is immutable once built.
type Program struct {
	Insts []Inst
	// regs[i] is instruction i's RegAccesses.
	regs []RegAccesses
	// ref[i] indexes Operands.Refs for instruction i when it has
	// addresses: the number of such instructions before it. It is nil
	// when no instruction has addresses.
	ref []uint32
	// global[i] is the number of global-memory instructions (Op.IsGlobal)
	// before instruction i, and globals their total. global is nil when
	// there are none.
	global  []uint32
	globals int
}

// NewProgram returns the program of insts, in an exact-size copy.
func NewProgram(insts []Inst) *Program {
	p := &Program{Insts: make([]Inst, len(insts)), regs: make([]RegAccesses, len(insts))}
	copy(p.Insts, insts)
	n := uint32(0)
	for i := range insts {
		p.regs[i] = insts[i].RegAccesses()
		if insts[i].hasAddrs {
			if p.ref == nil {
				p.ref = make([]uint32, len(insts))
			}
			p.ref[i] = n
			n++
		}
		if insts[i].Op.IsGlobal() {
			if p.global == nil {
				p.global = make([]uint32, len(insts))
			}
			p.global[i] = uint32(p.globals)
			p.globals++
		}
	}
	return p
}

// RegAccesses returns instruction i's register-file accesses.
func (p *Program) RegAccesses(i int) RegAccesses { return p.regs[i] }

// Global returns the ordinal of global-memory instruction i among the
// program's global-memory instructions.
func (p *Program) Global(i int) int { return int(p.global[i]) }

// Globals returns the number of global-memory instructions.
func (p *Program) Globals() int { return p.globals }

// Bytes returns the program's resident size.
func (p *Program) Bytes() int64 {
	return int64(len(p.Insts))*16 + int64(len(p.regs))*2 + int64(len(p.ref))*4 + int64(len(p.global))*4
}

// Operands is one warp's operand table: the arena of its distinct
// address vectors (see Packer), and one reference into it per
// instruction with addresses, in program order. It is immutable once
// built.
type Operands struct {
	Arena []AddrVec
	Refs  []AddrRef
}

// Bytes returns the table's resident size.
func (o *Operands) Bytes() int64 { return int64(len(o.Arena))*WarpSize*4 + int64(len(o.Refs))*4 }

// WarpCode is one warp's trace in split form: the program it may share
// with other warps and its own operand table. Decode rebuilds any
// instruction in the flat WarpInst form.
type WarpCode struct {
	Prog *Program
	Ops  *Operands
}

// Len returns the number of instructions.
func (c WarpCode) Len() int { return len(c.Prog.Insts) }

// Decode writes instruction i in flat form to wi. Its addresses point
// into the warp's arena, which must not change.
func (c WarpCode) Decode(i int, wi *WarpInst) {
	in := &c.Prog.Insts[i]
	*wi = WarpInst{Op: in.Op, Dst: in.Dst, DstMRFWrite: in.DstMRFWrite, Srcs: in.Srcs, Spill: in.Spill, Mask: in.Mask}
	if in.hasAddrs {
		r := c.Ops.Refs[c.Prog.ref[i]]
		wi.addrs, wi.pair = &c.Ops.Arena[r.slot()], r.pair()
	}
}

// AppendFlat appends every instruction in flat form to dst.
func (c WarpCode) AppendFlat(dst []WarpInst) []WarpInst {
	for i := range c.Prog.Insts {
		dst = append(dst, WarpInst{})
		c.Decode(i, &dst[len(dst)-1])
	}
	return dst
}

// Split converts a flat trace to split form, with a program of its own
// and its distinct vectors packed as a Packer packs them.
func Split(flat []WarpInst) WarpCode {
	var p Packer
	insts := make([]Inst, len(flat))
	slots := make([]int32, len(flat))
	for i := range flat {
		insts[i] = flat[i].Hot()
		slots[i] = -1
		if flat[i].HasAddrs() {
			v := flat[i].Addrs()
			slots[i] = p.Add(&v)
		}
	}
	ops := p.PackRefs(insts, slots)
	return WarpCode{Prog: NewProgram(insts), Ops: &ops}
}

// ProgramSet holds distinct programs by content, so that warps whose
// streams are equal share one. It is not safe for concurrent use.
type ProgramSet struct {
	byHash map[uint64][]*Program
}

// programSeed seeds the content hash of every ProgramSet.
var programSeed = maphash.MakeSeed()

// Intern returns the set's program whose records equal insts, adding
// one built from a copy of insts when there is none, and reports
// whether it added one.
func (s *ProgramSet) Intern(insts []Inst) (p *Program, added bool) {
	var h uint64
	if len(insts) > 0 {
		// An Inst has no padding, so equal records have equal bytes.
		h = maphash.Bytes(programSeed, unsafe.Slice((*byte)(unsafe.Pointer(&insts[0])), len(insts)*int(unsafe.Sizeof(Inst{}))))
	}
	for _, p := range s.byHash[h] {
		if slices.Equal(p.Insts, insts) {
			return p, false
		}
	}
	if s.byHash == nil {
		s.byHash = make(map[uint64][]*Program)
	}
	p = NewProgram(insts)
	s.byHash[h] = append(s.byHash[h], p)
	return p, true
}
