// Package banks models SM local-memory bank mapping and the per-warp-
// instruction conflict model of Section 6.1 of the paper.
//
// For every warp instruction we count the accesses each bank receives from
// the instruction's MRF operand reads and its shared-memory or cache data
// accesses, then charge one extra issue cycle for each access beyond the
// first to the most-contended bank. In the partitioned design, register
// banks and shared/cache banks live in disjoint structures, so the two
// kinds of access can never collide; in the unified design they share the
// same 32 banks and additionally compete for the single 16-byte port each
// cluster drives onto the crossbar (arbitration conflicts).
package banks

import (
	"math/bits"

	"repro/internal/config"
	"repro/internal/isa"
)

// Outcome summarizes the bank behaviour of one warp instruction. The
// trace cache memoizes one per instruction and variant, so it is packed
// into three bytes: a bank sees at most 3 MRF reads plus one access per
// lane (35), and an instruction touches at most one granule per lane.
type Outcome struct {
	// MaxPerBank is the maximum number of accesses any single bank (or,
	// in the unified design, any single cluster port) received. Table 5
	// buckets this value.
	MaxPerBank uint8
	// Arbitration reports that, in the unified design, a register operand
	// read and a shared/cache data access contended for the same bank.
	Arbitration bool
	// MemAccesses is the number of distinct memory bank granules touched
	// (shared-memory words/granules or cache lines); used for access-energy
	// and throughput accounting.
	MemAccesses uint8
}

// ExtraCycles is the issue serialization penalty: MaxPerBank - 1 (zero
// for conflict-free instructions).
func (o Outcome) ExtraCycles() int { return int(o.MaxPerBank) - 1 }

// Model evaluates bank conflicts for one design. A Model holds scratch
// buffers and is not safe for concurrent use; each simulated SM owns one.
type Model struct {
	design     config.Design
	aggressive bool

	bankReg [config.NumBanks]uint8 // register read accesses per bank
	bankMem [config.NumBanks]uint8 // memory data accesses per bank
	port    [config.NumClusters]uint8
	// granule records the distinct granules of the current instruction
	// in lane order; head[b] is the newest recorded granule with
	// g % NumBanks == b and next links each to the previous one in its
	// bucket (-1 ends a chain), so a dedupe walks only its own bucket.
	granule [isa.WarpSize]uint32
	head    [config.NumBanks]int8
	next    [isa.WarpSize]int8
	// regSlots holds the last Evaluate's MRF source count per bank slot
	// when it took the register-only path (regOnly), which leaves the
	// per-bank tallies stale; HeatInto then expands the slot counts
	// across the clusters instead.
	regSlots [config.BanksPerCluster]uint8
	regOnly  bool
}

// noGranule ends a granule bucket chain; emptyBuckets resets head.
const noGranule = -1

var emptyBuckets = func() (h [config.NumBanks]int8) {
	for i := range h {
		h[i] = noGranule
	}
	return h
}()

// New returns a conflict model for the given design. The FermiLike design
// uses partitioned banking (its flexibility is capacity-only).
func New(d config.Design) *Model {
	return &Model{design: d}
}

// NewAggressive returns the unified-design variant of Section 4.2 that
// allows multiple banks within a cluster to be accessed per cycle for
// scatter/gather (still limited to 16 bytes per cluster onto the
// crossbar). The paper measured a 0.5% average improvement over the
// simple single-bank-per-cluster design and used the simple one for its
// results; this variant exists for the ablation benchmark.
func NewAggressive(d config.Design) *Model {
	return &Model{design: d, aggressive: true}
}

// Variants is the number of bank-model variants: each config.Design,
// simple or with aggressive scatter/gather.
const Variants = 2 * 3

// Variant returns the index in [0, Variants) of a bank-model variant,
// under which the trace cache memoizes its outcome tables, or -1 for a
// design outside the config.Design enum.
func Variant(design config.Design, aggressive bool) int {
	if design > config.FermiLike {
		return -1
	}
	i := int(design) * 2
	if aggressive {
		i++
	}
	return i
}

// Outcomes evaluates every instruction of a flat trace under one
// bank-model variant. An Outcome is a pure function of the instruction
// and the variant, so the result can be memoized and replayed across
// runs (every trace source does exactly that, through AppendOutcomes).
func Outcomes(design config.Design, aggressive bool, insts []isa.WarpInst) []Outcome {
	m := &Model{design: design, aggressive: aggressive}
	out := make([]Outcome, len(insts))
	for i := range insts {
		out[i] = m.Evaluate(&insts[i])
	}
	return out
}

// AppendOutcomes appends the outcome of every instruction of a warp in
// split form under one bank-model variant to dst, decoding one
// instruction at a time, and returns the extended slice.
func AppendOutcomes(dst []Outcome, design config.Design, aggressive bool, code isa.WarpCode) []Outcome {
	m := &Model{design: design, aggressive: aggressive}
	var wi isa.WarpInst
	for i := range code.Len() {
		code.Decode(i, &wi)
		dst = append(dst, m.Evaluate(&wi))
	}
	return dst
}

// unified reports whether register and memory accesses share banks.
func (m *Model) unified() bool { return m.design == config.Unified }

// Evaluate computes the bank outcome of one warp instruction.
func (m *Model) Evaluate(wi *isa.WarpInst) Outcome {
	if !(wi.Op.IsMemory() && wi.HasAddrs()) {
		return m.evaluateRegs(wi)
	}
	m.regOnly = false
	for i := range m.bankReg {
		m.bankReg[i] = 0
		m.bankMem[i] = 0
	}
	for i := range m.port {
		m.port[i] = 0
	}

	// MRF operand reads. Register r maps to bank r mod 4 within each
	// cluster; every cluster reads its own copy for its 4 lanes, so one
	// MRF source adds one access to the same bank slot of all clusters.
	for _, src := range wi.Srcs {
		if src.Valid() && src.Space == isa.SpaceMRF {
			slot := int(src.Reg) % config.BanksPerCluster
			for c := 0; c < config.NumClusters; c++ {
				m.bankReg[c*config.BanksPerCluster+slot]++
			}
		}
	}

	var memAccesses int
	if wi.Op.IsShared() {
		memAccesses = m.addShared(wi)
	} else {
		memAccesses = m.addGlobal(wi)
	}

	out := Outcome{MemAccesses: uint8(memAccesses)}
	if m.unified() {
		// Shared banks: register and memory accesses sum per bank, and
		// shared/cache traffic also contends for the per-cluster port.
		for b := 0; b < config.NumBanks; b++ {
			if total := m.bankReg[b] + m.bankMem[b]; total > out.MaxPerBank {
				out.MaxPerBank = total
			}
			if m.bankReg[b] > 0 && m.bankMem[b] > 0 {
				out.Arbitration = true
			}
		}
		if !m.aggressive {
			// Simple design: one bank per cluster reaches the crossbar
			// per cycle, so distinct granules in one cluster serialize
			// even across different banks. The aggressive design muxes
			// any bank onto the port, leaving only true per-bank
			// conflicts (counted above).
			for c := 0; c < config.NumClusters; c++ {
				if m.port[c] > out.MaxPerBank {
					out.MaxPerBank = m.port[c]
				}
			}
		}
	} else {
		// Disjoint structures: the worst bank of either space decides.
		for b := 0; b < config.NumBanks; b++ {
			if m.bankReg[b] > out.MaxPerBank {
				out.MaxPerBank = m.bankReg[b]
			}
			if m.bankMem[b] > out.MaxPerBank {
				out.MaxPerBank = m.bankMem[b]
			}
		}
	}
	if out.MaxPerBank < 1 {
		out.MaxPerBank = 1
	}
	return out
}

// evaluateRegs is Evaluate's closed form for an instruction without
// memory addresses. Its only bank traffic is its MRF source reads, one
// access to the same bank slot (register mod 4) of every cluster per
// source, so in either design the most-contended bank holds the largest
// number of sources sharing a slot; no memory access means no
// arbitration. Only the four slot counts are recorded.
func (m *Model) evaluateRegs(wi *isa.WarpInst) Outcome {
	m.regOnly = true
	m.regSlots = [config.BanksPerCluster]uint8{}
	out := Outcome{MaxPerBank: 1}
	for _, src := range wi.Srcs {
		if src.Valid() && src.Space == isa.SpaceMRF {
			slot := src.Reg % config.BanksPerCluster
			m.regSlots[slot]++
			if m.regSlots[slot] > out.MaxPerBank {
				out.MaxPerBank = m.regSlots[slot]
			}
		}
	}
	return out
}

// HeatInto adds the bank footprint of the most recently Evaluated
// instruction to the per-bank access and conflict accumulators (the
// observability layer's heatmap). A bank's conflict count is the
// serialized accesses beyond its first in one instruction. Must be
// called after Evaluate and before the next one; it performs no
// allocation.
func (m *Model) HeatInto(access, conflict *[config.NumBanks]int64) {
	if m.regOnly {
		for c := 0; c < config.NumClusters; c++ {
			for slot, n := range m.regSlots {
				if n == 0 {
					continue
				}
				b := c*config.BanksPerCluster + slot
				access[b] += int64(n)
				conflict[b] += int64(n) - 1
			}
		}
		return
	}
	for b := range m.bankReg {
		n := int64(m.bankReg[b]) + int64(m.bankMem[b])
		if n == 0 {
			continue
		}
		access[b] += n
		if n > 1 {
			conflict[b] += n - 1
		}
	}
}

// addShared files the shared-memory accesses of the instruction and
// returns the number of distinct bank granules touched.
//
// Partitioned: banks are 4 bytes wide, bank = (addr/4) mod 32; accesses to
// the same word broadcast and count once.
//
// Unified: banks are 16 bytes wide and the shared address space stripes
// 16-byte granules across the 8 clusters (cluster = (addr/16) mod 8,
// bank-in-cluster = (addr/128) mod 4). One 16-byte granule is served by a
// single bank access, but each cluster can route only one bank onto the
// crossbar per cycle, so distinct granules in the same cluster serialize
// even when they live in different banks.
func (m *Model) addShared(wi *isa.WarpInst) int {
	base, stride, vec := wi.AddrForm()
	if vec == nil && isa.Monotone(base, stride) {
		// Equal granules are adjacent, so a lane's granule is new
		// unless it is the newest one; a zero stride is one address.
		n := 0
		for mask := runMask(wi.Mask, stride); mask != 0; mask &= mask - 1 {
			addr := base + uint32(bits.TrailingZeros32(mask))*stride
			if g := m.sharedGranule(addr); n == 0 || m.granule[n-1] != g {
				m.granule[n] = g
				n++
				m.fileShared(addr, g)
			}
		}
		return n
	}
	if vec == nil {
		av := wi.Addrs()
		vec = &av
	}
	m.head = emptyBuckets
	n := 0
	for t := 0; t < isa.WarpSize; t++ {
		if wi.Mask&(1<<uint(t)) == 0 {
			continue
		}
		addr := vec[t]
		g := m.sharedGranule(addr)
		if m.seen(g, n) {
			continue
		}
		m.record(g, n)
		n++
		m.fileShared(addr, g)
	}
	return n
}

// sharedGranule is the bank granule of a shared-memory address.
func (m *Model) sharedGranule(addr uint32) uint32 {
	if m.unified() {
		return addr / config.UnifiedBankWidth
	}
	return addr / config.PartitionedShmemBankWidth
}

// fileShared files one access to the shared-memory granule g holding
// addr.
func (m *Model) fileShared(addr, g uint32) {
	if m.unified() {
		cluster := int(g) % config.NumClusters
		slot := int(addr/config.CacheLineBytes) % config.BanksPerCluster
		m.bankMem[cluster*config.BanksPerCluster+slot]++
		m.port[cluster]++
	} else {
		m.bankMem[g%config.NumBanks]++
	}
}

// addGlobal files the cache-line accesses of a global memory instruction
// and returns the number of distinct lines touched.
//
// A 128-byte line spans banks in both designs: all 32 4-byte banks in the
// partitioned design, or 8 16-byte unified banks, one per cluster, with
// bank-in-cluster = (line) mod 4. Distinct lines are already serialized by
// the single-ported tag array (one lookup per cycle, modeled by the SM),
// so lines never collide with each other within an instruction; the only
// unified-specific hazard is a line's data access landing in the same bank
// an MRF operand of the same instruction reads (an arbitration conflict,
// at most one extra cycle). Each line access is therefore filed as one
// access to its bank slot, capped at one per slot.
func (m *Model) addGlobal(wi *isa.WarpInst) int {
	var slotUsed [config.BanksPerCluster]bool
	base, stride, vec := wi.AddrForm()
	if vec == nil && isa.Monotone(base, stride) {
		// Equal lines are adjacent, as in addShared.
		n := 0
		for mask := runMask(wi.Mask, stride); mask != 0; mask &= mask - 1 {
			line := (base + uint32(bits.TrailingZeros32(mask))*stride) / config.CacheLineBytes
			if n == 0 || m.granule[n-1] != line {
				m.granule[n] = line
				n++
				m.fileLine(line, &slotUsed)
			}
		}
		return n
	}
	if vec == nil {
		av := wi.Addrs()
		vec = &av
	}
	m.head = emptyBuckets
	n := 0
	for t := 0; t < isa.WarpSize; t++ {
		if wi.Mask&(1<<uint(t)) == 0 {
			continue
		}
		line := vec[t] / config.CacheLineBytes
		if m.seen(line, n) {
			continue
		}
		m.record(line, n)
		n++
		m.fileLine(line, &slotUsed)
	}
	return n
}

// fileLine files one access to a cache line. Partitioned cache lines use
// dedicated banks, so only the unified design files anything.
func (m *Model) fileLine(line uint32, slotUsed *[config.BanksPerCluster]bool) {
	if !m.unified() {
		return
	}
	slot := int(line) % config.BanksPerCluster
	if !slotUsed[slot] {
		slotUsed[slot] = true
		for c := 0; c < config.NumClusters; c++ {
			m.bankMem[c*config.BanksPerCluster+slot]++
		}
	}
}

// runMask is the lanes an affine access with the given stride needs
// visiting: all active ones, or with a zero stride, where every lane
// reads one address, only the lowest.
func runMask(mask, stride uint32) uint32 {
	if stride == 0 {
		return mask & -mask
	}
	return mask
}

// seen reports whether g is among the first n recorded granules. The
// newest granule is checked first: adjacent threads usually land in the
// granule recorded last (coalesced accesses), so the common duplicate is
// an O(1) hit. Past that, only the granules in g's bucket are walked;
// equal granules always share a bucket, so the answer is exact, and the
// walk's length grows with same-bank collisions rather than with lanes.
func (m *Model) seen(g uint32, n int) bool {
	if n == 0 {
		return false
	}
	if m.granule[n-1] == g {
		return true
	}
	for i := m.head[g%config.NumBanks]; i != noGranule; i = m.next[i] {
		if m.granule[i] == g {
			return true
		}
	}
	return false
}

// record files g as the n-th distinct granule, newest in its bucket.
func (m *Model) record(g uint32, n int) {
	b := g % config.NumBanks
	m.granule[n] = g
	m.next[n] = m.head[b]
	m.head[b] = int8(n)
}
