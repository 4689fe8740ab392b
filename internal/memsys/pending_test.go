package memsys

import (
	"math/rand"
	"testing"
)

// refPending is the map-based reference the pendingTable replaced,
// including the deterministic minimum-(ready, line) eviction scan the
// memory pipeline relies on for bit-reproducible runs.
type refPending map[uint32]int64

func (m refPending) evictEarliest() (uint32, int64) {
	var key uint32
	val := int64(1) << 62
	for k, v := range m {
		if v < val || (v == val && k < key) {
			key, val = k, v
		}
	}
	delete(m, key)
	return key, val
}

// TestPendingTableDifferential drives the open-addressed table and the
// reference map through the same randomized operation stream and
// requires identical observable behaviour at every step.
func TestPendingTableDifferential(t *testing.T) {
	for _, bound := range []int{0, 4, 32, 1024} {
		rng := rand.New(rand.NewSource(int64(7 + bound)))
		tab := new(pendingTable)
		tab.reset(bound)
		ref := refPending{}
		// Keys drawn from a small universe so inserts, overwrites,
		// deletes of present and absent keys, and probe-chain collisions
		// all occur; values collide often to exercise the tie-break and
		// leave retire horizons both above and below most entries.
		for op := 0; op < 50000; op++ {
			key := uint32(rng.Intn(300))
			switch rng.Intn(5) {
			case 0, 1: // put (insert or overwrite)
				val := int64(rng.Intn(50))
				tab.put(key, val)
				ref[key] = val
			case 2: // del (possibly absent)
				tab.del(key)
				delete(ref, key)
			case 3: // evict the deterministic minimum
				if len(ref) == 0 {
					continue
				}
				gk, gv := tab.evictEarliest()
				wk, wv := ref.evictEarliest()
				if gk != wk || gv != wv {
					t.Fatalf("op %d: evictEarliest = (%d, %d), want (%d, %d)", op, gk, gv, wk, wv)
				}
			case 4: // retire every entry settled by a horizon
				h := int64(rng.Intn(50))
				tab.retire(h)
				for k, v := range ref {
					if v <= h {
						delete(ref, k)
					}
				}
			}
			if tab.len() != len(ref) {
				t.Fatalf("op %d: len = %d, want %d", op, tab.len(), len(ref))
			}
			// Point-probe a few keys, present and absent.
			for i := 0; i < 4; i++ {
				k := uint32(rng.Intn(300))
				gv, gok := tab.get(k)
				wv, wok := ref[k]
				if gok != wok || (gok && gv != wv) {
					t.Fatalf("op %d: get(%d) = (%d, %v), want (%d, %v)", op, k, gv, gok, wv, wok)
				}
			}
		}
	}
}

// TestPendingTableBoundedNeverGrows: sized by the MSHR bound, the table
// must keep its backing arrays for the lifetime of the pipeline — that
// is the allocation-free guarantee of the cycle loop's hot path.
func TestPendingTableBoundedNeverGrows(t *testing.T) {
	const bound = 64
	tab := new(pendingTable)
	tab.reset(bound)
	slots := len(tab.keys)
	if slots < 2*bound {
		t.Fatalf("table sized %d slots for bound %d, want >= %d", slots, bound, 2*bound)
	}
	rng := rand.New(rand.NewSource(11))
	for op := 0; op < 100000; op++ {
		for tab.len() >= bound { // the pipeline evicts before inserting
			tab.evictEarliest()
		}
		tab.put(rng.Uint32(), int64(rng.Intn(1000)))
		if len(tab.keys) != slots {
			t.Fatalf("op %d: table grew from %d to %d slots", op, slots, len(tab.keys))
		}
	}
}
