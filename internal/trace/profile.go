package trace

import (
	"sort"

	"repro/internal/isa"
)

// Profile is the static characterization of a trace: everything that can
// be known without timing simulation. It quantifies the properties the
// paper's Section 3 characterization is built on.
type Profile struct {
	// Instructions is the dynamic warp-instruction count.
	Instructions int64
	// ThreadInstructions weights by active threads.
	ThreadInstructions int64
	// OpCounts is the instruction mix.
	OpCounts map[isa.Op]int64
	// SpillInstructions counts allocator-inserted spill/fill code.
	SpillInstructions int64

	// Operand placement (reads and writes separately).
	MRFReads, ORFReads, LRFReads    int64
	MRFWrites, ORFWrites, LRFWrites int64

	// RegistersUsed is the number of distinct architectural registers.
	RegistersUsed int
	// MaxSharedAddr is the highest shared-memory byte touched + 4
	// (the trace's scratchpad footprint per CTA).
	MaxSharedAddr uint32

	// GlobalFootprintLines is the number of distinct 128-byte global
	// lines touched (cold working set).
	GlobalFootprintLines int
	// GlobalLineAccesses is the total line touches (for reuse factor).
	GlobalLineAccesses int64
	// ReuseHistogram buckets global line accesses by their reuse
	// distance in distinct lines: <=512 (fits 64KB), <=2048 (256KB),
	// <=4096 (512KB), and beyond.
	ReuseHistogram [4]int64
	// AvgLinesPerAccess is the mean distinct lines per global memory
	// instruction (coalescing quality: 1 = perfectly coalesced).
	AvgLinesPerAccess float64
}

// MRFOperandFraction returns the share of operand accesses served by the
// MRF (the register-hierarchy effectiveness metric).
func (p *Profile) MRFOperandFraction() float64 {
	mrf := p.MRFReads + p.MRFWrites
	all := mrf + p.ORFReads + p.ORFWrites + p.LRFReads + p.LRFWrites
	if all == 0 {
		return 0
	}
	return float64(mrf) / float64(all)
}

// ReuseFactor returns mean touches per distinct global line.
func (p *Profile) ReuseFactor() float64 {
	if p.GlobalFootprintLines == 0 {
		return 0
	}
	return float64(p.GlobalLineAccesses) / float64(p.GlobalFootprintLines)
}

// reuseBuckets are the distinct-line reuse-distance boundaries, chosen to
// correspond to 64 KB, 256 KB, and 512 KB caches of 128-byte lines.
var reuseBuckets = [3]int{512, 2048, 4096}

// Analyze computes the profile of a trace. Reuse distances are computed
// over the interleaved access stream of all warps (round-robin by warp,
// one instruction at a time), approximating the scheduler's interleaving.
func Analyze(t *Trace) *Profile {
	p := &Profile{OpCounts: make(map[isa.Op]int64)}
	regs := make(map[uint8]bool)

	// Interleave the warps round-robin to build the global line stream.
	idx := make([]int, len(t.Warps))
	type lineAccess struct{ line uint32 }
	var stream []lineAccess

	active := len(t.Warps)
	for active > 0 {
		active = 0
		for w, warp := range t.Warps {
			if idx[w] >= len(warp) {
				continue
			}
			active++
			wi := &warp[idx[w]]
			idx[w]++

			p.Instructions++
			p.ThreadInstructions += int64(wi.ActiveThreads())
			p.OpCounts[wi.Op]++
			if wi.Spill {
				p.SpillInstructions++
			}
			for _, s := range wi.Srcs {
				if s.Valid() {
					regs[s.Reg] = true
				}
			}
			if wi.Dst.Valid() {
				regs[wi.Dst.Reg] = true
			}
			hot := wi.Hot()
			ra := hot.RegAccesses()
			p.MRFReads += ra.Reads(isa.SpaceMRF)
			p.ORFReads += ra.Reads(isa.SpaceORF)
			p.LRFReads += ra.Reads(isa.SpaceLRF)
			p.MRFWrites += ra.Writes(isa.SpaceMRF)
			p.ORFWrites += ra.Writes(isa.SpaceORF)
			p.LRFWrites += ra.Writes(isa.SpaceLRF)
			if !wi.HasAddrs() {
				continue
			}
			if wi.Op.IsShared() {
				for l := 0; l < isa.WarpSize; l++ {
					if wi.Mask&(1<<uint(l)) == 0 {
						continue
					}
					if a := wi.Addr(l) + 4; a > p.MaxSharedAddr {
						p.MaxSharedAddr = a
					}
				}
				continue
			}
			// Global access: dedupe lines within the instruction, newest
			// first (neighbouring lanes usually share a line).
			var lines [isa.WarpSize]uint32
			n := 0
			for l := 0; l < isa.WarpSize; l++ {
				if wi.Mask&(1<<uint(l)) == 0 {
					continue
				}
				line := wi.Addr(l) / 128
				k := n - 1
				for k >= 0 && lines[k] != line {
					k--
				}
				if k < 0 {
					lines[n] = line
					n++
					stream = append(stream, lineAccess{line})
				}
			}
		}
	}

	// Reuse distances over the interleaved line stream, via the classic
	// last-access + distinct-count sweep (O(n log n) with a sorted set
	// approximated by a per-line last-index map and a Fenwick tree).
	p.GlobalLineAccesses = int64(len(stream))
	if len(stream) > 0 {
		last := make(map[uint32]int, 1024)
		ft := newFenwick(len(stream))
		globalOps := int64(0)
		for _, op := range []isa.Op{isa.OpLDG, isa.OpSTG, isa.OpTEX} {
			globalOps += p.OpCounts[op]
		}
		if globalOps > 0 {
			p.AvgLinesPerAccess = float64(len(stream)) / float64(globalOps)
		}
		for i, acc := range stream {
			if j, ok := last[acc.line]; ok {
				// Distinct lines touched in (j, i) = number of stream
				// positions in that window that were a line's most
				// recent access.
				d := ft.sum(i) - ft.sum(j)
				bucket := 3
				for b, lim := range reuseBuckets {
					if d <= lim {
						bucket = b
						break
					}
				}
				p.ReuseHistogram[bucket]++
				ft.add(j+1, -1)
			}
			last[acc.line] = i
			ft.add(i+1, 1)
		}
		p.GlobalFootprintLines = len(last)
	}
	p.RegistersUsed = len(regs)
	return p
}

// TopOps returns the instruction mix sorted by count, descending.
func (p *Profile) TopOps() []isa.Op {
	ops := make([]isa.Op, 0, len(p.OpCounts))
	for op := range p.OpCounts {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool {
		if p.OpCounts[ops[i]] != p.OpCounts[ops[j]] {
			return p.OpCounts[ops[i]] > p.OpCounts[ops[j]]
		}
		return ops[i] < ops[j]
	})
	return ops
}

// fenwick is a Fenwick (binary indexed) tree over positions 1..n.
type fenwick struct{ tree []int }

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int, n+1)} }

func (f *fenwick) add(i, delta int) {
	for ; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

// sum returns the prefix sum over positions 1..i.
func (f *fenwick) sum(i int) int {
	s := 0
	for ; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}
