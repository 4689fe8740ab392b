package memsys

import (
	"math/bits"
	"sync"

	"repro/internal/config"
	"repro/internal/isa"
)

// Footprint is what the pipeline reads of one global-memory instruction
// (LDG, STG, or TEX): its distinct 128-byte lines in first-lane order,
// each with the mask of 32-byte sectors the warp touches in it, the
// number of distinct per-thread addresses (the uncached path's
// transaction count), the active thread count (the write-through byte
// count), and lane 0's address, where whole-warp DRAM transactions are
// booked. It is a pure function of the instruction's mask and address
// vector — the line size is fixed — so the trace cache memoizes one per
// global-memory instruction (see Footprints) and the timing core never
// rescans the address vector.
//
// The words are [distinct | active<<8, lane-0 address, line<<4 | sectors,
// ...]: a line number is an address over 128, so it fits in 25 bits, and
// a line has four sectors.
type Footprint []uint32

const (
	// footprintHeader is the number of words before the line words.
	footprintHeader = 2
	// sectorBits is the width of a line word's sector mask.
	sectorBits = config.CacheLineBytes / SectorBytes
	sectorMask = 1<<sectorBits - 1
	// maxFootprintWords bounds one footprint: the header plus one line
	// per lane.
	maxFootprintWords = footprintHeader + isa.WarpSize
)

// Lines returns the number of distinct lines the instruction touches.
func (f Footprint) Lines() int { return len(f) - footprintHeader }

// Line returns the i-th distinct line (in first-lane order) and the mask
// of its 32-byte sectors the warp touches.
func (f Footprint) Line(i int) (line uint32, sectors uint8) {
	w := f[footprintHeader+i]
	return w >> sectorBits, uint8(w & sectorMask)
}

// Distinct returns the number of distinct per-thread addresses: even
// without a cache, the load/store unit merges threads that access the
// same address (broadcast reads cost one transaction).
func (f Footprint) Distinct() int { return int(f[0] & 0xFF) }

// Active returns the number of active threads.
func (f Footprint) Active() int { return int(f[0] >> 8) }

// Addr0 returns lane 0's address, the address whole-warp transactions
// (uncached accesses, write-through stores) are booked at.
func (f Footprint) Addr0() uint32 { return f[1] }

// appendFootprint appends the footprint of the global-memory instruction
// wi to dst and returns the extended slice; the footprint is the part
// past the input's length. It scans the address vector once: each lane
// finds its line newest-first (adjacent lanes usually share the line
// recorded last, so the common duplicate is O(1)), and a per-line bitmap
// of byte offsets counts distinct addresses, which are exactly the
// distinct (line, offset) pairs.
func appendFootprint(dst []uint32, wi *isa.WarpInst) []uint32 {
	base, stride, vec := wi.AddrForm()
	if vec == nil {
		if isa.Monotone(base, stride) {
			return appendRunFootprint(dst, wi.Mask, base, stride)
		}
		av := wi.Addrs()
		vec = &av
	}
	start := len(dst)
	first := start + footprintHeader
	dst = append(dst, 0, vec[0])
	var offsets [isa.WarpSize][2]uint64
	for m := wi.Mask; m != 0; m &= m - 1 {
		a := vec[bits.TrailingZeros32(m)]
		line := a / config.CacheLineBytes
		off := a % config.CacheLineBytes
		i := len(dst) - 1
		for ; i >= first; i-- {
			if dst[i]>>sectorBits == line {
				break
			}
		}
		if i < first {
			dst = append(dst, line<<sectorBits)
			i = len(dst) - 1
		}
		dst[i] |= 1 << (off / SectorBytes)
		offsets[i-first][off/64] |= 1 << (off % 64)
	}
	distinct := 0
	for i := range dst[first:] {
		distinct += bits.OnesCount64(offsets[i][0]) + bits.OnesCount64(offsets[i][1])
	}
	dst[start] = uint32(distinct) | uint32(bits.OnesCount32(wi.Mask))<<8
	return dst
}

// appendRunFootprint is appendFootprint for affine addresses that do not
// wrap (isa.Monotone). Their lines are ordered by lane, so a lane's line
// is new unless it is the newest one, and their addresses are distinct
// unless the stride is zero, when every lane reads one address.
func appendRunFootprint(dst []uint32, mask, base, stride uint32) []uint32 {
	start := len(dst)
	dst = append(dst, 0, base)
	lanes := mask
	if stride == 0 {
		lanes &= -lanes
	}
	for ; lanes != 0; lanes &= lanes - 1 {
		a := base + uint32(bits.TrailingZeros32(lanes))*stride
		line := a / config.CacheLineBytes
		if len(dst) == start+footprintHeader || dst[len(dst)-1]>>sectorBits != line {
			dst = append(dst, line<<sectorBits)
		}
		dst[len(dst)-1] |= 1 << (a % config.CacheLineBytes / SectorBytes)
	}
	active := bits.OnesCount32(mask)
	distinct := active
	if stride == 0 {
		distinct = min(active, 1)
	}
	dst[start] = uint32(distinct) | uint32(active)<<8
	return dst
}

// Footprints is one warp's memoized footprint table, indexed by
// global-memory ordinal (isa.Program.Global): a single allocation
// holding each global-memory instruction's offset into an arena of
// footprint words, an end offset, then the arena. Other instructions
// have no entry, and a global-memory instruction without addresses has
// an empty footprint. The table is immutable once built and safe to
// share across concurrently simulated SMs.
type Footprints struct {
	// off[g]..off[g+1] spans global-memory instruction g's words in
	// arena.
	off   []uint32
	arena []uint32
}

// footprintScratch pools the growable buffers NewFootprints builds into,
// so a table costs one exact-size allocation.
var footprintScratch = sync.Pool{New: func() any { return new([]uint32) }}

// NewFootprints builds the footprint table of a warp trace, decoding
// only its global-memory instructions.
func NewFootprints(code isa.WarpCode) *Footprints {
	bp := footprintScratch.Get().(*[]uint32)
	n := code.Prog.Globals() + 1
	// The offsets come first and the arena follows, as in the table's
	// single allocation; offsets count from the arena's start.
	buf := append((*bp)[:0], make([]uint32, n)...)
	var wi isa.WarpInst
	g := 0
	for i := range code.Prog.Insts {
		in := &code.Prog.Insts[i]
		if !in.Op.IsGlobal() {
			continue
		}
		buf[g] = uint32(len(buf) - n)
		g++
		if in.HasAddrs() {
			code.Decode(i, &wi)
			buf = appendFootprint(buf, &wi)
		}
	}
	buf[g] = uint32(len(buf) - n)
	words := make([]uint32, len(buf))
	copy(words, buf)
	*bp = buf
	footprintScratch.Put(bp)
	return &Footprints{off: words[:n], arena: words[n:]}
}

// At returns the footprint of global-memory instruction g, counted by
// isa.Program.Global.
func (t *Footprints) At(g int) Footprint { return t.arena[t.off[g]:t.off[g+1]] }

// Bytes returns the table's resident size, for the trace cache's budget.
func (t *Footprints) Bytes() int64 { return int64(len(t.off)+len(t.arena)) * 4 }
