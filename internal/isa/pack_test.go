package isa

import (
	"math/rand/v2"
	"testing"
)

// TestPackerSharesEqualVectors: a Packer keeps each distinct vector
// once, in order of first Add, points equal vectors at one copy, leaves
// instructions without a slot alone, and starts each trace empty, also
// when its generation stamp wraps. The pool of 200 vectors makes the
// table grow several times.
func TestPackerSharesEqualVectors(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	pool := make([]AddrVec, 200)
	for k := range pool {
		for l := range pool[k] {
			pool[k][l] = uint32(k)<<8 + uint32(l)*4
		}
	}
	pool[7] = pool[3] // equal content at distinct addresses
	var p Packer
	for trace := 0; trace < 3; trace++ {
		if trace == 1 {
			p.gen = ^uint32(0) // this trace's Pack wraps the stamp
		}
		insts := make([]WarpInst, 1000)
		slots := make([]int32, len(insts))
		want := make([]*AddrVec, len(insts))
		for i := range insts {
			slots[i] = -1
			if rng.IntN(4) > 0 {
				want[i] = &pool[rng.IntN(len(pool))]
				slots[i] = p.Add(want[i])
			}
		}
		arena := p.Pack(insts, slots)

		if cap(arena) != len(arena) {
			t.Errorf("trace %d: arena len %d cap %d, want exact size", trace, len(arena), cap(arena))
		}
		seen := make(map[AddrVec]*AddrVec)
		next := 0
		for i := range insts {
			got := insts[i].Addrs
			if want[i] == nil {
				if got != nil {
					t.Fatalf("trace %d: inst %d without a slot got addresses", trace, i)
				}
				continue
			}
			if *got != *want[i] {
				t.Fatalf("trace %d: inst %d: vector content changed", trace, i)
			}
			if q, ok := seen[*got]; ok {
				if q != got {
					t.Fatalf("trace %d: inst %d: equal vectors not shared", trace, i)
				}
				continue
			}
			if next >= len(arena) || got != &arena[next] {
				t.Fatalf("trace %d: inst %d: first use of a vector is not arena slot %d", trace, i, next)
			}
			seen[*got] = got
			next++
		}
		if next != len(arena) {
			t.Errorf("trace %d: arena holds %d vectors, trace uses %d distinct", trace, len(arena), next)
		}
	}
	if p.Pack(make([]WarpInst, 3), []int32{-1, -1, -1}) != nil {
		t.Error("a trace without addresses got an arena")
	}
}
