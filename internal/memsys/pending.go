package memsys

import (
	"math"
	"slices"
)

// pendingTable tracks in-flight line fills (line -> data-ready cycle)
// without per-operation heap traffic. It replaces the map[uint32]int64
// the pipeline used to mutate on every miss: a Go map assignment can
// allocate (bucket growth) on the cycle loop's hottest path, whereas
// this open-addressed table allocates only when it doubles past the
// largest size its arrays have held — and never, once pre-sized, in the
// MSHR-bounded configuration (capacity is fixed by the MSHR bound,
// entries never exceed it). A recycled SM frame keeps its table, so
// the arrays' high-water mark carries across runs.
//
// Fills that have arrived are dead weight: every later lookup treats
// them as absent. retire drops them in bulk, so the table holds the
// fills still in flight rather than every line ever missed, and an
// unbounded table is sized by peak in-flight fills, not by footprint.
//
// Semantics match the map exactly; the eviction scan reproduces the
// map loop's deterministic minimum-(ready, line) selection. A
// randomized differential test (pending_test.go) pins the equivalence.
//
// A slot holds its key plus one, so a zero slot is empty and clearing
// the keys empties the table; keys must be below 1<<32-1 (line numbers
// are).
type pendingTable struct {
	keys []uint32
	vals []int64
	n    int
	// live is retire's survivor buffer, with room for every entry the
	// table can hold at its current size, so retire never allocates.
	live []pendingEntry
}

// pendingEntry is one (line, ready cycle) pair in retire's buffer.
type pendingEntry struct {
	key uint32
	val int64
}

// minPendingSlots is the smallest table; must be a power of two.
const minPendingSlots = 64

// reset empties the table and sizes it for up to bound resident
// entries (bound <= 0 means unbounded: start small and grow by
// doubling), keeping its arrays' capacity. A recycled table therefore
// takes a new table's sizes, and slot layouts, at every step of a run,
// and allocates only past its high-water mark.
func (p *pendingTable) reset(bound int) {
	slots := minPendingSlots
	// Keep occupancy at or below 50% so probe chains stay short and a
	// bounded table never needs to grow.
	for slots < 2*bound {
		slots *= 2
	}
	p.resize(slots)
}

// resize empties the table and gives it slots slots (a power of two)
// and a survivor buffer with room for half of them, reusing the
// arrays' capacity.
func (p *pendingTable) resize(slots int) {
	p.keys = slices.Grow(p.keys[:0], slots)[:slots]
	p.vals = slices.Grow(p.vals[:0], slots)[:slots]
	clear(p.keys)
	p.live = slices.Grow(p.live[:0], slots/2)
	p.n = 0
}

// copyFrom makes p a copy of src's entries in src's slot layout, so a
// copy's probe chains are the original's, reusing p's arrays. A table
// that has been reset for a run gets a survivor buffer to match; a zero
// one, which never runs, gets none.
func (p *pendingTable) copyFrom(src *pendingTable) {
	p.keys = append(p.keys[:0], src.keys...)
	p.vals = append(p.vals[:0], src.vals...)
	p.n = src.n
	if p.live != nil {
		p.live = slices.Grow(p.live[:0], len(p.keys)/2)
	}
}

// home returns the key's preferred slot (Fibonacci hashing; the table
// length is a power of two).
func (p *pendingTable) home(key uint32) int {
	return int((key * 2654435761) & uint32(len(p.keys)-1))
}

// len returns the number of resident entries.
func (p *pendingTable) len() int { return p.n }

// get returns the entry for key, if present.
func (p *pendingTable) get(key uint32) (int64, bool) {
	mask := len(p.keys) - 1
	for i := p.home(key); p.keys[i] != 0; i = (i + 1) & mask {
		if p.keys[i] == key+1 {
			return p.vals[i], true
		}
	}
	return 0, false
}

// put inserts or overwrites the entry for key.
func (p *pendingTable) put(key uint32, val int64) {
	if 2*(p.n+1) > len(p.keys) {
		p.grow()
	}
	mask := len(p.keys) - 1
	i := p.home(key)
	for p.keys[i] != 0 {
		if p.keys[i] == key+1 {
			p.vals[i] = val
			return
		}
		i = (i + 1) & mask
	}
	p.keys[i], p.vals[i] = key+1, val
	p.n++
}

// del removes the entry for key if present, using backward-shift
// deletion (no tombstones: later entries of the probe chain slide into
// the vacated slot when their home position allows it).
func (p *pendingTable) del(key uint32) {
	mask := len(p.keys) - 1
	i := p.home(key)
	for {
		if p.keys[i] == 0 {
			return // absent
		}
		if p.keys[i] == key+1 {
			break
		}
		i = (i + 1) & mask
	}
	p.n--
	j := i
	for {
		p.keys[i] = 0
		for {
			j = (j + 1) & mask
			if p.keys[j] == 0 {
				return
			}
			// The entry at j may move into the hole at i only if its
			// home slot does not lie cyclically within (i, j] — moving
			// it otherwise would break its own probe chain.
			h := p.home(p.keys[j] - 1)
			if (j-h)&mask >= (j-i)&mask {
				p.keys[i], p.vals[i] = p.keys[j], p.vals[j]
				break
			}
		}
		i = j
	}
}

// evictEarliest removes and returns the entry with the smallest value,
// breaking value ties by the smaller key — the same deterministic rule
// the map-based scan used, so runs stay bit-reproducible. It must not
// be called on an empty table.
func (p *pendingTable) evictEarliest() (key uint32, val int64) {
	val = int64(1) << 62
	for i, k := range p.keys {
		if k == 0 {
			continue
		}
		if p.vals[i] < val || (p.vals[i] == val && k-1 < key) {
			key, val = k-1, p.vals[i]
		}
	}
	p.del(key)
	return key, val
}

// collect gathers, in slot order, every entry whose value is after
// horizon into the survivor buffer. The table holds at most half its
// slots, so the buffer never grows.
func (p *pendingTable) collect(horizon int64) []pendingEntry {
	p.live = p.live[:0]
	for i, k := range p.keys {
		if k != 0 && p.vals[i] > horizon {
			p.live = append(p.live, pendingEntry{k - 1, p.vals[i]})
		}
	}
	return p.live
}

// retire drops every entry whose value is at or before horizon, in
// place, and rehashes the survivors so their probe chains stay intact.
func (p *pendingTable) retire(horizon int64) {
	live := p.collect(horizon)
	if len(live) == p.n {
		return // nothing settled
	}
	clear(p.keys)
	p.n = 0
	for _, e := range live {
		p.put(e.key, e.val)
	}
}

// reserve makes room for one more entry without growing the table when
// settled entries can be dropped instead: before the table would grow
// it retires every entry at or before horizon, and it grows only if
// the survivors still fill more than a quarter of the slots.
func (p *pendingTable) reserve(horizon int64) {
	if 2*(p.n+1) <= len(p.keys) {
		return
	}
	p.retire(horizon)
	if 4*p.n > len(p.keys) {
		p.grow()
	}
}

// grow doubles the table and rehashes every entry, in slot order. The
// entries wait in the survivor buffer, which put never touches, so a
// table whose arrays have the room reslices them instead of
// allocating.
func (p *pendingTable) grow() {
	live := p.collect(math.MinInt64)
	p.resize(2 * len(p.keys))
	for _, e := range live {
		p.put(e.key, e.val)
	}
}
