package isa

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// affineVec returns the vector whose thread t holds base + t*stride.
func affineVec(base, stride uint32) AddrVec {
	var v AddrVec
	for t := range v {
		v[t] = base + uint32(t)*stride
	}
	return v
}

// isAffine reports whether v is base + t*stride on every lane, the
// test's own reading of the Packer's classification.
func isAffine(v *AddrVec) bool { return *v == affineVec(v[0], v[1]-v[0]) }

// checkPacked checks a packed trace against the vectors it was given
// (want[i] nil for an instruction without addresses): every lane reads
// back, affine vectors and only they are in pair form, equal vectors
// share one slot and pair, and the arena is exactly irregular +
// ⌈affine/16⌉ slots, the irregular vectors and then the pairs, each in
// order of first use.
func checkPacked(t *testing.T, name string, insts []WarpInst, want []*AddrVec, arena []AddrVec) {
	t.Helper()
	distinct := make(map[AddrVec]bool)
	var nIrregular, nAffine int
	for _, v := range want {
		if v == nil || distinct[*v] {
			continue
		}
		distinct[*v] = true
		if isAffine(v) {
			nAffine++
		} else {
			nIrregular++
		}
	}
	if n := nIrregular + (nAffine+PairsPerSlot-1)/PairsPerSlot; len(arena) != n || cap(arena) != n {
		t.Fatalf("%s: arena len %d cap %d, want both %d (%d irregular, %d affine)", name, len(arena), cap(arena), n, nIrregular, nAffine)
	}
	type at struct {
		slot *AddrVec
		pair uint8
	}
	seen := make(map[AddrVec]at)
	var irregular, pairs int
	for i := range insts {
		wi := &insts[i]
		if want[i] == nil {
			if wi.HasAddrs() {
				t.Fatalf("%s: inst %d without a slot got addresses", name, i)
			}
			continue
		}
		for l := 0; l < WarpSize; l++ {
			if got := wi.Addr(l); got != want[i][l] {
				t.Fatalf("%s: inst %d lane %d: address %#x, want %#x", name, i, l, got, want[i][l])
			}
		}
		base, stride, vec := wi.AddrForm()
		affine := isAffine(want[i])
		if (vec == nil) != affine {
			t.Fatalf("%s: inst %d: pair form %v for an affine=%v vector", name, i, vec == nil, affine)
		}
		if vec == nil && affineVec(base, stride) != *want[i] {
			t.Fatalf("%s: inst %d: pair (%#x, %#x) does not rebuild its vector", name, i, base, stride)
		}
		here := at{wi.addrs, wi.pair}
		if prev, ok := seen[*want[i]]; ok {
			if prev != here {
				t.Fatalf("%s: inst %d: equal vectors not shared", name, i)
			}
			continue
		}
		seen[*want[i]] = here
		var next at
		if affine {
			next = at{&arena[nIrregular+pairs/PairsPerSlot], uint8(pairs%PairsPerSlot + 1)}
			pairs++
		} else {
			next = at{&arena[irregular], 0}
			irregular++
		}
		if here != next {
			t.Fatalf("%s: inst %d: first use of a vector is not the next slot or pair of its form", name, i)
		}
	}
}

// TestPackerSharesEqualVectors: a Packer keeps each distinct vector
// once, irregular ones as full slots and affine ones as pairs, each form
// in order of first use; it points equal vectors at one slot and pair,
// leaves instructions without a slot alone, and starts each trace
// empty, also when its generation stamp wraps. The pool of 200 vectors
// makes the table grow several times.
func TestPackerSharesEqualVectors(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	pool := make([]AddrVec, 200)
	for k := range pool {
		if k%2 == 0 {
			pool[k] = affineVec(uint32(k)<<8, uint32(k%5)*4)
			continue
		}
		for l := range pool[k] {
			pool[k][l] = uint32(k)<<8 + uint32(l*l)
		}
	}
	pool[7] = pool[3] // equal irregular content at distinct addresses
	pool[8] = pool[4] // equal affine content at distinct addresses
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
		checkPacked(t, fmt.Sprint("trace ", trace), insts, want, arena)
	}
	if p.Pack(make([]WarpInst, 3), []int32{-1, -1, -1}) != nil {
		t.Error("a trace without addresses got an arena")
	}
}

// randomVec draws a vector that is affine about half the time, with a
// stride of 0, 4 or 128, a wrapping "negative" stride, or a random one,
// and a base that may sit just below 2^32 so the lanes wrap; otherwise
// it is random, or affine on all lanes but one.
func randomVec(rng *rand.Rand) AddrVec {
	base := rng.Uint32()
	if rng.IntN(2) == 0 {
		base = ^uint32(0) - rng.Uint32N(256)
	}
	strides := [...]uint32{0, 4, 128, ^uint32(3), ^uint32(127), rng.Uint32()} // ^3 is -4
	v := affineVec(base, strides[rng.IntN(len(strides))])
	switch rng.IntN(4) {
	case 0:
		v[rng.IntN(WarpSize)]++
	case 1:
		for l := range v {
			v[l] = rng.Uint32()
		}
	}
	return v
}

// FuzzPack feeds several traces through one Packer, each a random mix of
// irregular and affine vectors drawn from a small pool so that equal
// vectors recur. Each trace first adds a few vectors no instruction
// uses, then adds the rest in an order other than the instructions', as
// kgen adds spill vectors after the code they are spliced into. The
// packed trace must read back lane for lane, share equal vectors, hold
// irregular + ⌈affine/16⌉ slots, and equal the same instructions packed
// by a fresh Packer in instruction order.
func FuzzPack(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(40))
	f.Add(uint64(2), uint8(1), uint8(200))
	f.Add(uint64(3), uint8(5), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, traces, size uint8) {
		rng := rand.New(rand.NewPCG(seed, 7))
		var p Packer
		for trace := 0; trace < int(traces%6)+1; trace++ {
			pool := make([]AddrVec, int(size)%150+1)
			for k := range pool {
				pool[k] = randomVec(rng)
			}
			insts := make([]WarpInst, 2*len(pool))
			want := make([]*AddrVec, len(insts))
			for i := range want {
				if rng.IntN(5) > 0 {
					want[i] = &pool[rng.IntN(len(pool))]
				}
			}
			for range rng.IntN(4) {
				unused := randomVec(rng)
				p.Add(&unused)
			}
			slots := make([]int32, len(insts))
			for _, i := range rng.Perm(len(insts)) {
				slots[i] = -1
				if want[i] != nil {
					slots[i] = p.Add(want[i])
				}
			}
			arena := p.Pack(insts, slots)
			checkPacked(t, "fuzz", insts, want, arena)

			var fresh Packer
			inOrder := make([]WarpInst, len(insts))
			for i := range slots {
				slots[i] = -1
				if want[i] != nil {
					slots[i] = fresh.Add(want[i])
				}
			}
			fresh.Pack(inOrder, slots)
			if !reflect.DeepEqual(insts, inOrder) {
				t.Fatal("the arena's layout depends on the order of the Add calls")
			}
		}
	})
}
