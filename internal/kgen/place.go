package kgen

import "repro/internal/isa"

// placeAgg aggregates the uses of one instruction's result.
type placeAgg struct {
	nearMax int32 // max same-region use distance within ORFWindow
	far     bool  // some use beyond the window or region
}

// grow returns buf resized to n zeroed elements, reallocating only when
// its capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// place assigns MRF/ORF/LRF spaces to every operand of a finished trace.
//
// The pass mirrors the compile-time register hierarchy management of
// Gebhart et al. [MICRO 2011], which the unified-memory design relies on
// to keep MRF bandwidth demand low:
//
//   - The trace is divided into regions at every point where the two-level
//     warp scheduler deschedules the warp: barriers, and the first
//     consumption of a result still outstanding from a global or texture
//     load. ORF and LRF contents do not survive region boundaries.
//   - Within a region, a short-latency result is placed in the LRF when
//     all of its nearby uses are by the immediately following result
//     (distance 1), or in the ORF when any use falls within the next
//     ORFWindow results. Uses in later regions or beyond the window read
//     the MRF, and the producer then also writes through to the MRF.
//   - Long-latency loads (global, texture) write the MRF: their consumers
//     run after a deschedule. Shared-memory loads complete while the warp
//     stays active, so their results use the hierarchy like ALU results.
//
// Its per-instruction tables live in s, reused across builds.
func place(insts []isa.WarpInst, s *scratch) {
	n := len(insts)
	if n == 0 {
		return
	}

	type def struct {
		inst   int32 // producing instruction index, -1 if none
		region int32
		seq    int32 // producer sequence number within region
		isLoad bool
	}

	var lastDef [isa.MaxRegs]def
	for r := range lastDef {
		lastDef[r].inst = -1
	}
	// pendingLL marks registers written by a long-latency load whose
	// first use has not yet forced a deschedule.
	var pendingLL [isa.MaxRegs]bool

	aggs := grow(s.aggs, n)
	producer := grow(s.producer, n) // per-src producing instruction, -1 if none
	s.aggs, s.producer = aggs, producer

	region := int32(0)
	seq := int32(0) // producer sequence counter within region

	for i := 0; i < n; i++ {
		wi := &insts[i]

		// A deschedule happens before this instruction if it consumes an
		// outstanding long-latency result.
		for _, s := range wi.Srcs {
			if s.Reg != isa.NoReg && pendingLL[s.Reg] {
				region++
				seq = 0
				clear(pendingLL[:])
				break
			}
		}

		for k, s := range wi.Srcs {
			producer[i][k] = -1
			if s.Reg == isa.NoReg {
				continue
			}
			d := lastDef[s.Reg]
			if d.inst < 0 {
				continue // kernel input / uninitialized: counts as MRF
			}
			producer[i][k] = d.inst
			a := &aggs[d.inst]
			if d.region == region && !d.isLoad && seq-d.seq < ORFWindow && seq >= d.seq {
				if dist := seq - d.seq + 1; dist > a.nearMax {
					a.nearMax = dist
				}
			} else {
				a.far = true
			}
		}

		if wi.Dst.Reg != isa.NoReg {
			// Long-latency load results go straight to the MRF and never
			// occupy an LRF/ORF slot, so they do not advance the window:
			// a base address stays ORF-readable across a burst of loads.
			if !wi.Op.IsLongLatency() {
				seq++
			}
			lastDef[wi.Dst.Reg] = def{
				inst:   int32(i),
				region: region,
				seq:    seq,
				isLoad: wi.Op.IsLongLatency(),
			}
			pendingLL[wi.Dst.Reg] = wi.Op.IsLongLatency()
		}

		// Barriers and exits end the schedulable region after executing.
		if wi.Op == isa.OpBAR || wi.Op == isa.OpEXIT {
			region++
			seq = 0
			clear(pendingLL[:])
		}
	}

	// Resolve destination spaces from the aggregated uses.
	for i := 0; i < n; i++ {
		wi := &insts[i]
		if wi.Dst.Reg == isa.NoReg {
			wi.Dst.Space = isa.SpaceNone
			continue
		}
		a := aggs[i]
		switch {
		case wi.Op.IsLongLatency():
			wi.Dst.Space = isa.SpaceMRF
			wi.DstMRFWrite = true
		case a.nearMax == 1:
			wi.Dst.Space = isa.SpaceLRF
			wi.DstMRFWrite = a.far
		case a.nearMax > 1:
			wi.Dst.Space = isa.SpaceORF
			wi.DstMRFWrite = a.far
		default:
			// No nearby use: dead value or far-only uses go to the MRF.
			wi.Dst.Space = isa.SpaceMRF
			wi.DstMRFWrite = true
		}
	}

	// Resolve source spaces against their producers' placements.
	// A use is near iff its producer recorded it as contributing to
	// nearMax, which we recheck with the same region/sequence bookkeeping.
	region, seq = 0, 0
	for r := range lastDef {
		lastDef[r].inst = -1
	}
	clear(pendingLL[:])
	for i := 0; i < n; i++ {
		wi := &insts[i]
		for _, s := range wi.Srcs {
			if s.Reg != isa.NoReg && pendingLL[s.Reg] {
				region++
				seq = 0
				clear(pendingLL[:])
				break
			}
		}
		for k := range wi.Srcs {
			s := &wi.Srcs[k]
			if s.Reg == isa.NoReg {
				s.Space = isa.SpaceNone
				continue
			}
			s.Space = isa.SpaceMRF
			p := producer[i][k]
			if p < 0 {
				continue
			}
			d := lastDef[s.Reg]
			if d.inst != p {
				continue // clobbered meanwhile; defensive, cannot happen
			}
			prod := &insts[p]
			if d.region == region && !d.isLoad && seq >= d.seq && seq-d.seq < ORFWindow {
				switch prod.Dst.Space {
				case isa.SpaceLRF:
					s.Space = isa.SpaceLRF
				case isa.SpaceORF:
					s.Space = isa.SpaceORF
				}
			}
		}
		if wi.Dst.Reg != isa.NoReg {
			// Long-latency load results go straight to the MRF and never
			// occupy an LRF/ORF slot, so they do not advance the window:
			// a base address stays ORF-readable across a burst of loads.
			if !wi.Op.IsLongLatency() {
				seq++
			}
			lastDef[wi.Dst.Reg] = def{
				inst:   int32(i),
				region: region,
				seq:    seq,
				isLoad: wi.Op.IsLongLatency(),
			}
			pendingLL[wi.Dst.Reg] = wi.Op.IsLongLatency()
		}
		if wi.Op == isa.OpBAR || wi.Op == isa.OpEXIT {
			region++
			seq = 0
			clear(pendingLL[:])
		}
	}
}
