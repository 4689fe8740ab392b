package isa

import "math/bits"

// Packer makes a trace hold each distinct address vector once. A
// trace's producer passes every vector to Add as the trace is built and
// keeps the returned index beside the instruction; Pack then copies the
// distinct vectors into one exact-size arena and points each
// instruction at its copy. Equal vectors share one pointer, so the
// vectors of a packed trace must be treated as immutable.
//
// A Packer is reusable: Pack empties it for the next trace while its
// buffers keep their capacity. It is not safe for concurrent use.
type Packer struct {
	vecs []AddrVec // distinct vectors added since the last Pack
	// table is an open-addressed index into vecs, a power of two in
	// length and at most half full. Entries stamped with an older gen
	// are empty, so Pack need not clear it.
	table []packEntry
	shift uint // 64 - log2(len(table)): hashes index by their top bits
	gen   uint32
}

type packEntry struct {
	gen uint32
	idx int32
}

// Add records a copy of *v, unless an equal vector was added since the
// last Pack, and returns the index of its content in the next arena.
func (p *Packer) Add(v *AddrVec) int32 {
	if 2*(len(p.vecs)+1) > len(p.table) {
		p.grow()
	}
	e := p.find(v)
	if e.gen != p.gen {
		*e = packEntry{gen: p.gen, idx: int32(len(p.vecs))}
		p.vecs = append(p.vecs, *v)
	}
	return e.idx
}

// find returns v's entry: the one holding an equal vector, or the empty
// one where it belongs.
func (p *Packer) find(v *AddrVec) *packEntry {
	mask := len(p.table) - 1
	for h := int(hashAddrs(v) >> p.shift); ; h = (h + 1) & mask {
		e := &p.table[h]
		if e.gen != p.gen || p.vecs[e.idx] == *v {
			return e
		}
	}
}

// grow doubles the table and re-enters the vectors already added.
func (p *Packer) grow() {
	n := max(2*len(p.table), 64)
	p.table = make([]packEntry, n)
	p.shift = uint(64 - bits.TrailingZeros(uint(n)))
	if p.gen == 0 {
		p.gen = 1 // a fresh table's zero entries are empty
	}
	for k := range p.vecs {
		*p.find(&p.vecs[k]) = packEntry{gen: p.gen, idx: int32(k)}
	}
}

// Pack copies the vectors added since the last Pack, one per distinct
// content in order of first Add, into an exact-size arena and returns
// it (nil if none were added). slots is index-aligned with insts: each
// instruction whose slot is an index Add returned is pointed at that
// vector's copy, and one whose slot is negative is left alone.
func (p *Packer) Pack(insts []WarpInst, slots []int32) []AddrVec {
	var arena []AddrVec
	if len(p.vecs) > 0 {
		arena = make([]AddrVec, len(p.vecs))
		copy(arena, p.vecs)
	}
	for i, k := range slots {
		if k >= 0 {
			insts[i].Addrs = &arena[k]
		}
	}
	p.vecs = p.vecs[:0]
	if p.gen++; p.gen == 0 {
		clear(p.table)
		p.gen = 1
	}
	return arena
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
