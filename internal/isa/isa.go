// Package isa defines the warp-level instruction set consumed by the SM
// timing simulator.
//
// The simulator is trace driven: a kernel (see internal/kgen and
// internal/workloads) emits, for every warp, a sequence of WarpInst values.
// Each WarpInst describes one SIMT instruction executed by up to 32 threads
// in lockstep: an operation class, register operands annotated with their
// placement in the register file hierarchy (MRF/ORF/LRF), and, for memory
// operations, one address per active thread. WarpInst is the flat form
// traces are built, written and read in; the simulator replays them in
// split form (WarpCode), a program of hot records that warps running
// the same stream share, plus each warp's own addresses.
//
// The ISA is deliberately small. The paper's evaluation depends only on
// instruction class (which execution unit and latency), register operand
// placement (which banks are touched), and memory addresses (bank conflicts,
// cache behaviour, DRAM traffic) — not on actual data values, which are
// never modeled.
package isa

import (
	"fmt"
	"math"
	"math/bits"
)

// WarpSize is the number of threads that execute a WarpInst in lockstep.
const WarpSize = 32

// Op identifies the operation class of a warp instruction.
type Op uint8

// Operation classes. Latencies are assigned by the SM model (internal/sm)
// following Table 2 of the paper.
const (
	// OpNop performs no work and produces no result.
	OpNop Op = iota
	// OpALU is a single-cycle-throughput arithmetic instruction
	// (8-cycle latency).
	OpALU
	// OpSFU is a special-function instruction such as rsqrt or sin
	// (20-cycle latency).
	OpSFU
	// OpLDG is a load from global memory. It probes the primary data
	// cache and on a miss fetches a 128-byte line from DRAM.
	OpLDG
	// OpSTG is a store to global memory. The cache is write-through and
	// no-write-allocate, so stores always send their bytes to DRAM.
	OpSTG
	// OpLDS is a load from shared (scratchpad) memory.
	OpLDS
	// OpSTS is a store to shared (scratchpad) memory.
	OpSTS
	// OpTEX is a texture fetch (400-cycle latency), cached.
	OpTEX
	// OpBAR is a CTA-wide barrier.
	OpBAR
	// OpEXIT terminates the warp.
	OpEXIT

	numOps
)

var opNames = [numOps]string{
	OpNop:  "NOP",
	OpALU:  "ALU",
	OpSFU:  "SFU",
	OpLDG:  "LDG",
	OpSTG:  "STG",
	OpLDS:  "LDS",
	OpSTS:  "STS",
	OpTEX:  "TEX",
	OpBAR:  "BAR",
	OpEXIT: "EXIT",
}

// String returns the mnemonic of the operation class.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IsMemory reports whether the op carries per-thread addresses.
func (o Op) IsMemory() bool {
	switch o {
	case OpLDG, OpSTG, OpLDS, OpSTS, OpTEX:
		return true
	}
	return false
}

// IsGlobal reports whether the op accesses the global address space
// (through the cache and DRAM).
func (o Op) IsGlobal() bool {
	switch o {
	case OpLDG, OpSTG, OpTEX:
		return true
	}
	return false
}

// IsShared reports whether the op accesses the shared-memory scratchpad.
func (o Op) IsShared() bool { return o == OpLDS || o == OpSTS }

// IsLongLatency reports whether a dependent instruction should cause the
// two-level warp scheduler to deschedule the warp while the result is
// outstanding (global loads and texture fetches).
func (o Op) IsLongLatency() bool { return o == OpLDG || o == OpTEX }

// RegSpace identifies where an operand is read from or written to in the
// three-level register file hierarchy of Gebhart et al. [MICRO 2011].
type RegSpace uint8

const (
	// SpaceNone marks an absent operand.
	SpaceNone RegSpace = iota
	// SpaceMRF is the main register file (large, banked SRAM).
	SpaceMRF
	// SpaceORF is the per-thread 4-entry operand register file.
	SpaceORF
	// SpaceLRF is the per-thread single-entry last result file.
	SpaceLRF
)

var spaceNames = [...]string{
	SpaceNone: "-",
	SpaceMRF:  "MRF",
	SpaceORF:  "ORF",
	SpaceLRF:  "LRF",
}

// String returns the name of the register space.
func (s RegSpace) String() string {
	if int(s) < len(spaceNames) {
		return spaceNames[s]
	}
	return fmt.Sprintf("RegSpace(%d)", uint8(s))
}

// NoReg marks an absent register operand.
const NoReg uint8 = 0xFF

// MaxRegs is the maximum number of architectural registers per thread.
const MaxRegs = 64

// Operand is a register operand together with its hierarchy placement.
type Operand struct {
	Reg   uint8 // architectural register index, or NoReg
	Space RegSpace
}

// Valid reports whether the operand names a register.
func (o Operand) Valid() bool { return o.Reg != NoReg && o.Space != SpaceNone }

// String formats the operand as e.g. "r3@MRF".
func (o Operand) String() string {
	if !o.Valid() {
		return "-"
	}
	return fmt.Sprintf("r%d@%s", o.Reg, o.Space)
}

// AddrVec holds one byte address per thread in the warp. Entries of
// inactive threads (per the instruction mask) are ignored.
type AddrVec [WarpSize]uint32

// WarpInst is one dynamic warp instruction.
type WarpInst struct {
	// Op is the operation class.
	Op Op
	// Dst is the destination register, if any. For instructions that
	// produce a result, Dst.Space records the cheapest level the result
	// is written to (always at least the LRF for short-latency ops).
	Dst Operand
	// DstMRFWrite records that the result is additionally written through
	// to the MRF because it is live past a deschedule point or beyond the
	// ORF window. Loads always write the MRF.
	DstMRFWrite bool
	// Srcs are the source operands; unused entries have Space == SpaceNone.
	Srcs [3]Operand
	// Spill marks instructions inserted by the register allocator
	// (spill stores and fill loads) rather than the original program.
	// It sits in the padding before Mask, which keeps a WarpInst at 24
	// bytes (traces are the trace cache's largest resident table).
	Spill bool
	// pair says how addrs holds the addresses: 0 means addrs is the
	// full vector, and k means the vector is affine and addrs is a
	// slot of Packer pairs, pair k-1 of which holds (base, stride). It
	// fills the last padding byte before Mask.
	pair uint8
	// Mask is the active-thread mask; bit i set means thread i executes.
	Mask uint32
	// addrs holds the per-thread byte addresses of memory operations,
	// in the form pair names, and is nil otherwise. Shared-memory
	// addresses are offsets into the CTA's shared segment; global
	// addresses are absolute. Instructions of one trace may share a
	// vector or a slot of pairs (see Packer), so it is immutable. It is
	// reached only through the accessors below, which keep a packed
	// pair from being read as a vector.
	addrs *AddrVec
}

// HasAddrs reports whether the instruction carries per-thread addresses.
func (wi *WarpInst) HasAddrs() bool { return wi.addrs != nil }

// Addr returns thread t's byte address. The instruction must have
// addresses.
func (wi *WarpInst) Addr(t int) uint32 {
	base, stride, vec := wi.AddrForm()
	if vec != nil {
		return vec[t]
	}
	return base + uint32(t)*stride
}

// AddrForm returns the instruction's addresses in their stored form, for
// loops over the lanes that should not re-decode it per lane: vec is the
// full vector, or nil when thread t's address is base + t*stride
// (modulo 2^32). The instruction must have addresses.
func (wi *WarpInst) AddrForm() (base, stride uint32, vec *AddrVec) {
	if wi.pair == 0 {
		return 0, 0, wi.addrs
	}
	j := 2 * int(wi.pair-1)
	return wi.addrs[j], wi.addrs[j+1], nil
}

// Addrs returns a copy of the instruction's addresses, all 32 lanes. The
// instruction must have addresses.
func (wi *WarpInst) Addrs() AddrVec {
	base, stride, vec := wi.AddrForm()
	if vec != nil {
		return *vec
	}
	var v AddrVec
	for t := range v {
		v[t] = base + uint32(t)*stride
	}
	return v
}

// Monotone reports whether the affine addresses base + t*stride of lanes
// 0 to 31 stay within [0, 2^32) without wrapping, with stride read as a
// signed step. They are then ordered by lane, and so is any address
// divided by a constant, such as a line or bank granule: lanes whose
// quotients are equal are adjacent in any subset of the lanes.
func Monotone(base, stride uint32) bool {
	end := int64(base) + (WarpSize-1)*int64(int32(stride))
	return end >= 0 && end <= math.MaxUint32
}

// SetAddrs points the instruction at the full vector v (nil removes its
// addresses). The instruction keeps the pointer, so v must not change
// afterwards. Traces built in bulk pack their vectors with a Packer
// instead.
func (wi *WarpInst) SetAddrs(v *AddrVec) { wi.addrs, wi.pair = v, 0 }

// FullMask is the mask with all 32 threads active.
const FullMask uint32 = 0xFFFFFFFF

// ActiveThreads returns the number of active threads in the instruction.
func (wi *WarpInst) ActiveThreads() int {
	return bits.OnesCount32(wi.Mask)
}

// String renders the instruction for debugging.
func (wi *WarpInst) String() string {
	s := wi.Op.String()
	if wi.Dst.Valid() {
		s += " " + wi.Dst.String()
		if wi.DstMRFWrite && wi.Dst.Space != SpaceMRF {
			s += "+MRF"
		}
	}
	for _, src := range wi.Srcs {
		if src.Valid() {
			s += " " + src.String()
		}
	}
	if wi.Spill {
		s += " [spill]"
	}
	return s
}
