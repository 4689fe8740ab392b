// Package isa defines the warp-level instruction set consumed by the SM
// timing simulator.
//
// The simulator is trace driven: a kernel (see internal/kgen and
// internal/workloads) emits, for every warp, a sequence of WarpInst values.
// Each WarpInst describes one SIMT instruction executed by up to 32 threads
// in lockstep: an operation class, register operands annotated with their
// placement in the register file hierarchy (MRF/ORF/LRF), and, for memory
// operations, one address per active thread.
//
// The ISA is deliberately small. The paper's evaluation depends only on
// instruction class (which execution unit and latency), register operand
// placement (which banks are touched), and memory addresses (bank conflicts,
// cache behaviour, DRAM traffic) — not on actual data values, which are
// never modeled.
package isa

import (
	"fmt"
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

// IsLoad reports whether the op produces a register result from memory.
func (o Op) IsLoad() bool { return o == OpLDG || o == OpLDS || o == OpTEX }

// IsStore reports whether the op writes memory.
func (o Op) IsStore() bool { return o == OpSTG || o == OpSTS }

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
	// Mask is the active-thread mask; bit i set means thread i executes.
	Mask uint32
	// Addrs holds per-thread byte addresses for memory operations and is
	// nil otherwise. Shared-memory addresses are offsets into the CTA's
	// shared segment; global addresses are absolute. Instructions of one
	// trace may share a vector (see Packer), so it is immutable.
	Addrs *AddrVec
}

// FullMask is the mask with all 32 threads active.
const FullMask uint32 = 0xFFFFFFFF

// ActiveThreads returns the number of active threads in the instruction.
func (wi *WarpInst) ActiveThreads() int {
	return bits.OnesCount32(wi.Mask)
}

// NumSrcs returns the number of valid source operands.
func (wi *WarpInst) NumSrcs() int {
	n := 0
	for _, s := range wi.Srcs {
		if s.Valid() {
			n++
		}
	}
	return n
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
