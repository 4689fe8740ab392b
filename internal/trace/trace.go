// Package trace serializes warp instruction traces and computes trace
// statistics.
//
// The paper's evaluation flow traced real CUDA binaries with Ocelot and
// fed the traces to its simulator. This package provides the equivalent
// interchange point for this repository: any Source (the synthetic
// workloads, or traces converted from an external tracer) can be recorded
// to a compact binary file, reloaded later, and replayed through the SM
// simulator byte-for-byte. A trace, recorded or read, holds each warp in
// the split form the simulator replays (isa.WarpCode), so a replay
// converts nothing per launch. The package also computes the static
// profile of a trace (instruction mix, operand placement, memory
// footprint and reuse), which cmd/tracestat renders.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/banks"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memsys"
)

// magic identifies the file format; the trailing digit is the version.
var magic = [8]byte{'G', 'P', 'U', 'T', 'R', 'C', '0', '1'}

// Source is a kernel grid in split form, what Record reads;
// workloads.Source and Trace satisfy it.
type Source interface {
	Grid() (ctas, warpsPerCTA int)
	WarpCode(cta, warp int) isa.WarpCode
}

// Trace is a fully materialized kernel grid in split form. It is also a
// simulator trace source (sm.TraceSource): it serves each warp's stored
// code, and computes the warp's outcome and footprint tables on each
// request; the dispatcher asks once per warp launch. A Trace is
// immutable, so SMs may share one.
type Trace struct {
	CTAs        int
	WarpsPerCTA int
	// Warps holds the per-warp code, indexed [cta*WarpsPerCTA + warp].
	// Warps with equal instruction streams may share one program.
	Warps []isa.WarpCode
}

// Grid implements Source.
func (t *Trace) Grid() (int, int) { return t.CTAs, t.WarpsPerCTA }

// WarpCode implements Source and sm.TraceSource: the warp's stored code.
func (t *Trace) WarpCode(cta, warp int) isa.WarpCode {
	return t.Warps[cta*t.WarpsPerCTA+warp]
}

// WarpOutcomes implements sm.TraceSource: the warp's bank-conflict
// outcomes under one bank-model variant, or nil for a design outside
// the config.Design enum.
func (t *Trace) WarpOutcomes(cta, warp int, design config.Design, aggressive bool) []banks.Outcome {
	if banks.Variant(design, aggressive) < 0 {
		return nil
	}
	code := t.WarpCode(cta, warp)
	return banks.AppendOutcomes(make([]banks.Outcome, 0, code.Len()), design, aggressive, code)
}

// WarpFootprints implements sm.TraceSource: the global-memory
// footprints of the warp's global-memory instructions.
func (t *Trace) WarpFootprints(cta, warp int) *memsys.Footprints {
	return memsys.NewFootprints(t.WarpCode(cta, warp))
}

// Instructions returns the total dynamic warp-instruction count.
func (t *Trace) Instructions() int64 {
	var n int64
	for _, c := range t.Warps {
		n += int64(c.Len())
	}
	return n
}

// Record collects every warp of a source into a Trace. It keeps the
// source's code as served, which the workloads trace cache shares
// immutably, so recording copies no instruction.
func Record(src Source) *Trace {
	ctas, warps := src.Grid()
	t := &Trace{CTAs: ctas, WarpsPerCTA: warps, Warps: make([]isa.WarpCode, ctas*warps)}
	for c := 0; c < ctas; c++ {
		for w := 0; w < warps; w++ {
			t.Warps[c*warps+w] = src.WarpCode(c, w)
		}
	}
	return t
}

// Write serializes the trace.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	hdr := [2]uint32{uint32(t.CTAs), uint32(t.WarpsPerCTA)}
	if err := binary.Write(bw, binary.LittleEndian, hdr[:]); err != nil {
		return err
	}
	var wi isa.WarpInst
	for _, code := range t.Warps {
		if err := binary.Write(bw, binary.LittleEndian, uint32(code.Len())); err != nil {
			return err
		}
		for i := range code.Len() {
			code.Decode(i, &wi)
			if err := writeInst(bw, &wi); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// instFlags packs the boolean instruction fields.
const (
	flagMRFWrite = 1 << 0
	flagSpill    = 1 << 1
	flagAddrs    = 1 << 2
)

func writeInst(w io.Writer, wi *isa.WarpInst) error {
	flags := byte(0)
	if wi.DstMRFWrite {
		flags |= flagMRFWrite
	}
	if wi.Spill {
		flags |= flagSpill
	}
	if wi.HasAddrs() {
		flags |= flagAddrs
	}
	buf := []byte{
		byte(wi.Op), flags,
		wi.Dst.Reg, byte(wi.Dst.Space),
		wi.Srcs[0].Reg, byte(wi.Srcs[0].Space),
		wi.Srcs[1].Reg, byte(wi.Srcs[1].Space),
		wi.Srcs[2].Reg, byte(wi.Srcs[2].Space),
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, wi.Mask); err != nil {
		return err
	}
	if !wi.HasAddrs() {
		return nil
	}
	// The file holds every lane, whichever form the code packs them in.
	av := wi.Addrs()
	return binary.Write(w, binary.LittleEndian, av[:])
}

// limits guarding against corrupt files.
const (
	maxWarps        = 1 << 20
	maxInstsPerWarp = 1 << 24
	// readPrealloc caps the capacity Read reserves from a count in the
	// file before reading the data it promises; slices grow past it only
	// as records actually arrive, so a short file cannot force a large
	// allocation.
	readPrealloc = 1 << 10
)

// Read deserializes a trace written by Write. It validates every warp
// (checkWarp), so a trace it returns is safe to replay.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, errors.New("trace: not a GPUTRC01 trace file")
	}
	var hdr [2]uint32
	if err := binary.Read(br, binary.LittleEndian, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	t := &Trace{CTAs: int(hdr[0]), WarpsPerCTA: int(hdr[1])}
	if t.CTAs <= 0 || t.WarpsPerCTA <= 0 ||
		t.CTAs > maxWarps || t.WarpsPerCTA > maxWarps || t.CTAs*t.WarpsPerCTA > maxWarps {
		return nil, fmt.Errorf("trace: implausible grid %dx%d", t.CTAs, t.WarpsPerCTA)
	}
	n := t.CTAs * t.WarpsPerCTA
	t.Warps = make([]isa.WarpCode, 0, min(n, readPrealloc))
	// Each warp is read into scratch reused across warps. Its vectors
	// are packed into an exact-size operand table and its program is
	// interned across the file, the resident shape of a trace the
	// workloads cache builds: a file's equal warps share one program.
	var insts []isa.Inst
	var slots []int32
	var pack isa.Packer
	var progs isa.ProgramSet
	var in isa.Inst
	var av isa.AddrVec
	for i := 0; i < n; i++ {
		var count uint32
		if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
			return nil, fmt.Errorf("trace: warp %d length: %w", i, err)
		}
		if count > maxInstsPerWarp {
			return nil, fmt.Errorf("trace: warp %d implausibly long (%d)", i, count)
		}
		insts, slots = insts[:0], slots[:0]
		for j := uint32(0); j < count; j++ {
			hasAddrs, err := readInst(br, &in, &av)
			if err != nil {
				return nil, fmt.Errorf("trace: warp %d inst %d: %w", i, j, err)
			}
			slot := int32(-1)
			if hasAddrs {
				slot = pack.Add(&av)
			}
			insts, slots = append(insts, in), append(slots, slot)
		}
		if err := checkWarp(insts); err != nil {
			return nil, fmt.Errorf("trace: warp %d: %w", i, err)
		}
		ops := pack.PackRefs(insts, slots)
		prog, _ := progs.Intern(insts)
		t.Warps = append(t.Warps, isa.WarpCode{Prog: prog, Ops: &ops})
	}
	return t, nil
}

// checkWarp rejects a warp the SM cannot execute: an empty one, one
// that does not end in EXIT (the SM would issue past its end), or one
// naming a register outside the architectural register file.
func checkWarp(warp []isa.Inst) error {
	if len(warp) == 0 {
		return errors.New("empty instruction stream")
	}
	if op := warp[len(warp)-1].Op; op != isa.OpEXIT {
		return fmt.Errorf("ends in %v, not EXIT", op)
	}
	for j := range warp {
		in := &warp[j]
		for _, reg := range [...]uint8{in.Dst.Reg, in.Srcs[0].Reg, in.Srcs[1].Reg, in.Srcs[2].Reg} {
			if reg >= isa.MaxRegs && reg != isa.NoReg {
				return fmt.Errorf("inst %d: register %d outside the %d-register file", j, reg, isa.MaxRegs)
			}
		}
	}
	return nil
}

// readInst decodes one instruction's hot record into in and, when the
// instruction has addresses, its vector into av; it reports whether it
// did.
func readInst(r io.Reader, in *isa.Inst, av *isa.AddrVec) (bool, error) {
	var buf [10]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return false, err
	}
	in.Op = isa.Op(buf[0])
	flags := buf[1]
	in.DstMRFWrite = flags&flagMRFWrite != 0
	in.Spill = flags&flagSpill != 0
	in.Dst = isa.Operand{Reg: buf[2], Space: isa.RegSpace(buf[3])}
	in.Srcs[0] = isa.Operand{Reg: buf[4], Space: isa.RegSpace(buf[5])}
	in.Srcs[1] = isa.Operand{Reg: buf[6], Space: isa.RegSpace(buf[7])}
	in.Srcs[2] = isa.Operand{Reg: buf[8], Space: isa.RegSpace(buf[9])}
	if err := binary.Read(r, binary.LittleEndian, &in.Mask); err != nil {
		return false, err
	}
	if flags&flagAddrs == 0 {
		return false, nil
	}
	return true, binary.Read(r, binary.LittleEndian, av[:])
}
