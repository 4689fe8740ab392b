package isa

import "math/bits"

// PairsPerSlot is the number of affine (base, stride) pairs a Packer
// stores in one arena slot, the size of a full vector.
const PairsPerSlot = WarpSize / 2

// Packer makes a trace hold each distinct address vector once, and an
// affine one in an eighth of a full vector's bytes. A trace's producer
// passes every vector to Add as the trace is built and keeps the
// returned reference beside the instruction; Pack then lays the
// distinct vectors the trace uses out in one exact-size arena and
// points each instruction at its copy.
//
// A vector whose thread t holds base + t*stride (modulo 2^32) on all 32
// lanes is affine and is kept as its (base, stride) pair, PairsPerSlot
// pairs to a slot after the slots of the irregular vectors; every
// other vector keeps a slot of its own. Instructions read either form
// through WarpInst.Addr or WarpInst.AddrForm. Equal vectors share one
// slot and pair, so the vectors of a packed trace must be treated as
// immutable.
//
// The arena's layout depends only on the instruction stream, not on the
// order of the Add calls: each form is numbered in order of first use
// by an instruction, and vectors no instruction uses are dropped.
//
// A Packer is reusable: Pack empties it for the next trace while its
// buffers keep their capacity. It is not safe for concurrent use.
type Packer struct {
	vecs  []AddrVec   // distinct irregular vectors added since the last Pack
	pairs [][2]uint32 // distinct affine (base, stride) pairs, likewise
	// table is an open-addressed index into vecs and pairs, a power of
	// two in length and at most half full. Entries stamped with an
	// older gen are empty, so Pack need not clear it.
	table []packEntry
	shift uint // 64 - log2(len(table)): hashes index by their top bits
	gen   uint32
	// rank is Pack's scratch: per reference, its form's first-use rank
	// in the trace being packed, or -1 before its first use.
	rank []int32
}

// A reference, as Add returns it, is k<<1 for vecs[k] and k<<1|1 for
// pairs[k].
type packEntry struct {
	gen uint32
	ref int32
}

// Add records a copy of *v, unless an equal vector was added since the
// last Pack, and returns a non-negative reference to its content for
// Pack.
func (p *Packer) Add(v *AddrVec) int32 {
	if 2*(len(p.vecs)+len(p.pairs)+1) > len(p.table) {
		p.grow()
	}
	base, stride, ok := affine(v)
	if !ok {
		e := p.findVec(v)
		if e.gen != p.gen {
			*e = packEntry{gen: p.gen, ref: int32(len(p.vecs)) << 1}
			p.vecs = append(p.vecs, *v)
		}
		return e.ref
	}
	e := p.findPair(base, stride)
	if e.gen != p.gen {
		*e = packEntry{gen: p.gen, ref: int32(len(p.pairs))<<1 | 1}
		p.pairs = append(p.pairs, [2]uint32{base, stride})
	}
	return e.ref
}

// affine reports whether thread t of v holds base + t*stride on every
// lane.
func affine(v *AddrVec) (base, stride uint32, ok bool) {
	base, stride = v[0], v[1]-v[0]
	for t := 2; t < WarpSize; t++ {
		if v[t] != base+uint32(t)*stride {
			return 0, 0, false
		}
	}
	return base, stride, true
}

// findVec returns the irregular vector v's entry: the one holding an
// equal vector, or the empty one where it belongs.
func (p *Packer) findVec(v *AddrVec) *packEntry {
	mask := len(p.table) - 1
	for h := int(hashAddrs(v) >> p.shift); ; h = (h + 1) & mask {
		e := &p.table[h]
		if e.gen != p.gen || e.ref&1 == 0 && p.vecs[e.ref>>1] == *v {
			return e
		}
	}
}

// findPair is findVec for an affine vector's pair.
func (p *Packer) findPair(base, stride uint32) *packEntry {
	mask := len(p.table) - 1
	for h := int(hashPair(base, stride) >> p.shift); ; h = (h + 1) & mask {
		e := &p.table[h]
		if e.gen != p.gen || e.ref&1 == 1 && p.pairs[e.ref>>1] == [2]uint32{base, stride} {
			return e
		}
	}
}

// grow doubles the table and re-enters the vectors and pairs already
// added.
func (p *Packer) grow() {
	n := max(2*len(p.table), 64)
	p.table = make([]packEntry, n)
	p.shift = uint(64 - bits.TrailingZeros(uint(n)))
	if p.gen == 0 {
		p.gen = 1 // a fresh table's zero entries are empty
	}
	for k := range p.vecs {
		*p.findVec(&p.vecs[k]) = packEntry{gen: p.gen, ref: int32(k) << 1}
	}
	for k, bs := range p.pairs {
		*p.findPair(bs[0], bs[1]) = packEntry{gen: p.gen, ref: int32(k)<<1 | 1}
	}
}

// Pack lays out the vectors added since the last Pack that insts use in
// an exact-size arena and returns it (nil if none are used). slots is
// index-aligned with insts: each instruction whose slot is a reference
// Add returned is pointed at that vector's copy, and one whose slot is
// negative is left alone. The arena holds the irregular vectors, then
// the pairs, each in order of first use.
func (p *Packer) Pack(insts []WarpInst, slots []int32) []AddrVec {
	arena, nv := p.layout(slots)
	for i, ref := range slots {
		if ref >= 0 {
			r := p.at(ref, nv)
			insts[i].addrs, insts[i].pair = &arena[r.slot()], r.pair()
		}
	}
	p.reset()
	return arena
}

// PackRefs is Pack for a trace kept in split form (see WarpCode): it
// lays out the same arena and returns it with one reference per
// instruction whose slot is non-negative, in instruction order, and
// marks in insts which instructions have addresses.
func (p *Packer) PackRefs(insts []Inst, slots []int32) Operands {
	arena, nv := p.layout(slots)
	n := 0
	for i, ref := range slots {
		insts[i].hasAddrs = ref >= 0
		if ref >= 0 {
			n++
		}
	}
	var refs []AddrRef
	if n > 0 {
		refs = make([]AddrRef, 0, n)
	}
	for _, ref := range slots {
		if ref >= 0 {
			refs = append(refs, p.at(ref, nv))
		}
	}
	p.reset()
	return Operands{Arena: arena, Refs: refs}
}

// layout ranks the forms slots use, each in order of first use, and
// copies them into an exact-size arena (nil if none are used): the nv
// irregular vectors, then the pairs. The ranks stay in p.rank for at.
func (p *Packer) layout(slots []int32) (arena []AddrVec, nv int) {
	rank := p.rank[:0]
	for range 2 * max(len(p.vecs), len(p.pairs)) {
		rank = append(rank, -1)
	}
	var used [2]int32 // vectors and pairs ranked so far
	for _, ref := range slots {
		if ref >= 0 && rank[ref] < 0 {
			rank[ref] = used[ref&1]
			used[ref&1]++
		}
	}
	p.rank = rank
	nv = int(used[0])
	if n := nv + (int(used[1])+PairsPerSlot-1)/PairsPerSlot; n > 0 {
		arena = make([]AddrVec, n)
	}
	for k := range p.vecs {
		if r := rank[k<<1]; r >= 0 {
			arena[r] = p.vecs[k]
		}
	}
	for k, bs := range p.pairs {
		if r := int(rank[k<<1|1]); r >= 0 {
			s, j := &arena[nv+r/PairsPerSlot], 2*(r%PairsPerSlot)
			s[j], s[j+1] = bs[0], bs[1]
		}
	}
	return arena, nv
}

// at returns where layout put the form of reference ref.
func (p *Packer) at(ref int32, nv int) AddrRef {
	r := int(p.rank[ref])
	if ref&1 == 0 {
		return newAddrRef(r, 0)
	}
	return newAddrRef(nv+r/PairsPerSlot, uint8(r%PairsPerSlot+1))
}

// reset empties the Packer for the next trace.
func (p *Packer) reset() {
	p.vecs, p.pairs = p.vecs[:0], p.pairs[:0]
	if p.gen++; p.gen == 0 {
		clear(p.table)
		p.gen = 1
	}
}

// hashAddrs mixes a vector two lanes at a time in four independent
// multiply chains, then rotates them together; Packer indexes its table
// with the top bits, which every input bit reaches through a multiply.
func hashAddrs(v *AddrVec) uint64 {
	const k = 0x9E3779B97F4A7C15
	pair := func(l int) uint64 { return uint64(v[l]) | uint64(v[l+1])<<32 }
	var a, b, c, d uint64
	for l := 0; l < WarpSize; l += 8 {
		a = (a ^ pair(l)) * k
		b = (b ^ pair(l+2)) * k
		c = (c ^ pair(l+4)) * k
		d = (d ^ pair(l+6)) * k
	}
	return (a ^ bits.RotateLeft64(b, 16) ^ bits.RotateLeft64(c, 32) ^ bits.RotateLeft64(d, 48)) * k
}

// hashPair mixes an affine vector's pair for the same table: every
// input bit reaches the top bits through the multiplies.
func hashPair(base, stride uint32) uint64 {
	const k = 0x9E3779B97F4A7C15
	h := (uint64(base) | uint64(stride)<<32) * k
	return (h ^ h>>32) * k
}
