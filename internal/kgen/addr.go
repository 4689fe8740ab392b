package kgen

import (
	"math/rand/v2"

	"repro/internal/isa"
)

// Coalesced returns per-thread addresses base + lane*stride: the canonical
// fully coalesced GPU access (a 4-byte stride touches one 128-byte line per
// warp).
func Coalesced(base, stride uint32) isa.AddrVec {
	var v isa.AddrVec
	for l := 0; l < isa.WarpSize; l++ {
		v[l] = base + uint32(l)*stride
	}
	return v
}

// CoalescedMod returns per-thread addresses (base + lane*stride) mod m,
// for strided patterns that must stay inside a segment of m bytes (e.g. a
// CTA's shared-memory allocation). m must be positive.
func CoalescedMod(base, stride, m uint32) isa.AddrVec {
	var v isa.AddrVec
	for l := 0; l < isa.WarpSize; l++ {
		v[l] = (base + uint32(l)*stride) % m
	}
	return v
}

// Broadcast returns the same address for every thread (served by a single
// bank access / cache line).
func Broadcast(addr uint32) isa.AddrVec {
	var v isa.AddrVec
	for l := range v {
		v[l] = addr
	}
	return v
}

// Random returns addresses drawn uniformly from [base, base+size), aligned
// to align bytes. It models pointer-chasing and irregular gather patterns
// (graph traversal, hash probing).
func Random(rng *rand.Rand, base, size, align uint32) isa.AddrVec {
	var v isa.AddrVec
	if align == 0 {
		align = 4
	}
	slots := size / align
	if slots == 0 {
		slots = 1
	}
	for l := range v {
		v[l] = base + (rng.Uint32N(slots))*align
	}
	return v
}

// ClusteredRandom returns gather addresses with line-level locality:
// consecutive groups of groupLanes lanes read adjacent 4-byte words of one
// randomly chosen 128-byte line. It models data-dependent gathers whose
// targets have spatial structure (graph neighbour lists, BVH nodes), where
// a warp touches ~32/groupLanes distinct lines rather than 32.
func ClusteredRandom(rng *rand.Rand, base, size uint32, groupLanes int) isa.AddrVec {
	var v isa.AddrVec
	if groupLanes < 1 {
		groupLanes = 1
	}
	lines := size / 128
	if lines == 0 {
		lines = 1
	}
	for l := 0; l < isa.WarpSize; l += groupLanes {
		line := base + rng.Uint32N(lines)*128
		for j := 0; j < groupLanes && l+j < isa.WarpSize; j++ {
			v[l+j] = line + uint32(j)*4
		}
	}
	return v
}

// Conflicting returns shared-memory addresses in which groups of `degree`
// consecutive lanes hit the same 4-byte bank column (stride of 128 bytes
// between lanes within a group), producing a degree-way bank conflict in
// the baseline design. degree must divide WarpSize.
func Conflicting(base uint32, degree int) isa.AddrVec {
	var v isa.AddrVec
	if degree < 1 {
		degree = 1
	}
	for l := 0; l < isa.WarpSize; l++ {
		group := l / degree
		within := l % degree
		v[l] = base + uint32(group)*4 + uint32(within)*128
	}
	return v
}
