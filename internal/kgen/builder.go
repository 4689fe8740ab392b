// Package kgen builds per-warp instruction traces for the SM simulator.
//
// It stands in for the paper's Ocelot-based PTX tracing flow: workloads
// (internal/workloads) describe their computation against a small builder
// API, and kgen lowers that description into isa.WarpInst traces, performing
// the two compiler responsibilities the paper depends on:
//
//   - Register allocation with spilling. Each kernel references
//     architectural registers according to its natural computation
//     structure; when the configured physical register budget is smaller
//     than the kernel's demand, a Belady (furthest-next-use) allocation
//     pass — the right model for a compiler that sees the whole kernel —
//     inserts spill stores and fill loads to a per-warp, register-major
//     local region in global memory (coalesced: one 128-byte line per
//     register per warp). The Table 1 dynamic-instruction ratios emerge
//     from the reference patterns rather than from a fitted curve.
//
//   - Operand placement in the MRF/ORF/LRF hierarchy (Gebhart et al.,
//     MICRO 2011). Values are read from the LRF when produced by the
//     immediately preceding result, from the 4-entry ORF when produced
//     within the current schedulable region, and from the MRF otherwise.
//     Regions end at barriers and wherever the two-level scheduler would
//     deschedule the warp (first consumption of an outstanding global or
//     texture load).
package kgen

import (
	"fmt"
	"sync"

	"repro/internal/isa"
)

// ORFWindow is the reach of the operand register file in producer results:
// a value is ORF-resident for the next ORFWindow results of its region.
const ORFWindow = 4

// minPhysRegs is the floor on the physical register budget: the operands
// of a single instruction (up to 3 sources + 1 destination) plus allocator
// headroom must be co-resident.
const minPhysRegs = 6

// Config parameterizes trace generation for one warp.
type Config struct {
	// RegsAvail is the physical register budget per thread. Zero or
	// anything at or above the kernel's demand disables spilling.
	RegsAvail int
	// SpillBase is the global byte address of this warp's spill region.
	// Register r of lane l spills to SpillBase + r*128 + l*4.
	SpillBase uint32
	// Mask is the default active-thread mask (FullMask if zero).
	Mask uint32
}

// Builder accumulates one warp's trace. It is single use: Emit methods add
// instructions, Finish runs register allocation (spill insertion) and the
// operand placement pass, then returns the trace.
type Builder struct {
	cfg      Config
	s        *scratch // pooled build state, returned by Finish
	insts    []isa.WarpInst
	arena    []isa.AddrVec // the finished trace's address arena, read by tests
	finished bool
}

// scratch is one build's growable working state: the emit and spill
// buffers with, index-aligned, each instruction's address-vector slot
// in the packer (-1 if it has none), the packer holding the vectors,
// and the allocation and placement passes' tables. Builders recycle it
// through scratches, so a warmed build allocates only what its trace
// keeps; builders on concurrent goroutines share the pool safely.
type scratch struct {
	insts, spilled []isa.WarpInst
	slots, spills  []int32
	pack           isa.Packer
	uses           [isa.MaxRegs][]int32
	aggs           []placeAgg
	producer       [][3]int32
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// NewBuilder returns a builder for one warp's trace.
func NewBuilder(cfg Config) *Builder {
	if cfg.Mask == 0 {
		cfg.Mask = isa.FullMask
	}
	s := scratches.Get().(*scratch)
	return &Builder{cfg: cfg, s: s, insts: s.insts}
}

// SetMask changes the active-thread mask for subsequently emitted
// instructions, modeling SIMT control-flow divergence (threads that take
// a different path, or that have finished their work, drop out of the
// mask). A zero mask is rejected: a fully inactive instruction would not
// be issued at all.
func (b *Builder) SetMask(mask uint32) {
	if mask == 0 {
		panic("kgen: empty active mask")
	}
	b.cfg.Mask = mask
}

// Mask returns the current active-thread mask.
func (b *Builder) Mask() uint32 { return b.cfg.Mask }

// ALU emits an arithmetic instruction.
func (b *Builder) ALU(dst uint8, srcs ...uint8) {
	b.emit(isa.OpALU, dst, srcs, nil)
}

// SFU emits a special-function instruction.
func (b *Builder) SFU(dst uint8, srcs ...uint8) {
	b.emit(isa.OpSFU, dst, srcs, nil)
}

// LDG emits a global load into dst using the per-thread addresses. addrReg,
// if not isa.NoReg, is the register holding the base address.
func (b *Builder) LDG(dst, addrReg uint8, addrs isa.AddrVec) {
	b.emit(isa.OpLDG, dst, srcList(addrReg), &addrs)
}

// STG emits a global store of data to the per-thread addresses.
func (b *Builder) STG(data, addrReg uint8, addrs isa.AddrVec) {
	b.emit(isa.OpSTG, isa.NoReg, srcList(data, addrReg), &addrs)
}

// LDS emits a shared-memory load.
func (b *Builder) LDS(dst, addrReg uint8, addrs isa.AddrVec) {
	b.emit(isa.OpLDS, dst, srcList(addrReg), &addrs)
}

// STS emits a shared-memory store.
func (b *Builder) STS(data, addrReg uint8, addrs isa.AddrVec) {
	b.emit(isa.OpSTS, isa.NoReg, srcList(data, addrReg), &addrs)
}

// TEX emits a texture fetch.
func (b *Builder) TEX(dst, addrReg uint8, addrs isa.AddrVec) {
	b.emit(isa.OpTEX, dst, srcList(addrReg), &addrs)
}

// Bar emits a CTA-wide barrier.
func (b *Builder) Bar() { b.emit(isa.OpBAR, isa.NoReg, nil, nil) }

// Exit terminates the warp. Finish appends one automatically if absent.
func (b *Builder) Exit() { b.emit(isa.OpEXIT, isa.NoReg, nil, nil) }

// srcList packs register operands, dropping NoReg entries.
func srcList(regs ...uint8) []uint8 {
	out := regs[:0]
	for _, r := range regs {
		if r != isa.NoReg {
			out = append(out, r)
		}
	}
	return out
}

// emit appends the instruction, adding addrs (nil for non-memory ops)
// to the build's packer.
func (b *Builder) emit(op isa.Op, dst uint8, srcs []uint8, addrs *isa.AddrVec) {
	if b.finished {
		panic("kgen: emit after Finish")
	}
	if len(srcs) > 3 {
		panic(fmt.Sprintf("kgen: %v has %d sources, max 3", op, len(srcs)))
	}
	for _, r := range srcs {
		if int(r) >= isa.MaxRegs {
			panic(fmt.Sprintf("kgen: register r%d out of range", r))
		}
	}
	if dst != isa.NoReg && int(dst) >= isa.MaxRegs {
		panic(fmt.Sprintf("kgen: register r%d out of range", dst))
	}
	slot := int32(-1)
	if addrs != nil {
		slot = b.s.pack.Add(addrs)
	}
	wi := isa.WarpInst{Op: op, Mask: b.cfg.Mask}
	wi.Dst = isa.Operand{Reg: dst}
	for i := range wi.Srcs {
		wi.Srcs[i].Reg = isa.NoReg
	}
	for i, r := range srcs {
		wi.Srcs[i] = isa.Operand{Reg: r}
	}
	b.insts = append(b.insts, wi)
	b.s.slots = append(b.s.slots, slot)
}

// Finish runs register allocation and the operand placement pass, then
// returns the trace, sized exactly to its length, with its distinct
// address vectors packed into one arena (isa.Packer), affine ones as
// (base, stride) pairs. The builder must not be reused afterwards.
func (b *Builder) Finish() []isa.WarpInst {
	trace, slots := b.lower()
	out := make([]isa.WarpInst, len(trace))
	copy(out, trace)
	b.arena = b.s.pack.Pack(out, slots)
	b.s.release()
	b.s, b.insts = nil, out
	return out
}

// FinishSplit is Finish for the split form (isa.WarpCode): it appends
// the trace's hot records to insts and returns them with the warp's
// operand table, whose arena Finish would have returned. The caller
// owns insts, so a warmed build allocates only the operand table. The
// builder must not be reused afterwards.
func (b *Builder) FinishSplit(insts []isa.Inst) ([]isa.Inst, isa.Operands) {
	trace, slots := b.lower()
	start := len(insts)
	for i := range trace {
		insts = append(insts, trace[i].Hot())
	}
	ops := b.s.pack.PackRefs(insts[start:], slots)
	b.s.release()
	b.s, b.insts = nil, nil
	return insts, ops
}

// lower ends the build: it appends EXIT if the trace lacks it, runs
// register allocation and operand placement, and returns the finished
// instructions in scratch with their packer references.
func (b *Builder) lower() ([]isa.WarpInst, []int32) {
	if b.finished {
		panic("kgen: Finish called twice")
	}
	if n := len(b.insts); n == 0 || b.insts[n-1].Op != isa.OpEXIT {
		b.Exit()
	}
	b.finished = true
	s := b.s
	s.insts = b.insts
	trace, slots := s.insts, s.slots
	if b.cfg.RegsAvail > 0 && b.cfg.RegsAvail < isa.MaxRegs {
		allocate(b.cfg.RegsAvail, b.cfg.SpillBase, s)
		trace, slots = s.spilled, s.spills
	}
	place(trace, s)
	return trace, slots
}

// release empties the scratch and returns it to the pool.
func (s *scratch) release() {
	s.insts, s.spilled = s.insts[:0], s.spilled[:0]
	s.slots, s.spills = s.slots[:0], s.spills[:0]
	for r := range s.uses {
		s.uses[r] = s.uses[r][:0]
	}
	scratches.Put(s)
}
