package cache

import "fmt"

// State is a frozen image of the tag store: tags, LRU timestamps, dirty
// bits, and the LRU tick. Snapshot deep-copies the
// arrays — the live cache overwrites them in place on every access, so a
// shared slice would let a parent run corrupt its forks.
type State struct {
	// Sets and Ways pin the geometry; Restore refuses a mismatch.
	Sets, Ways int
	// Tags, Age, and Dirty are copies of the per-line arrays.
	Tags  []uint32
	Age   []uint32
	Dirty []bool
	// Tick is the LRU timestamp counter.
	Tick uint32
}

// Snapshot captures the cache state as an immutable State.
func (c *Cache) Snapshot() *State {
	return &State{
		Sets:  c.sets,
		Ways:  c.ways,
		Tags:  append([]uint32(nil), c.tags...),
		Age:   append([]uint32(nil), c.age...),
		Dirty: append([]bool(nil), c.dirty...),
		Tick:  c.tick,
	}
}

// Restore overwrites the cache state with a previously captured State.
// It copies out of st (never aliases it), so one State can seed any
// number of forks, concurrently. The geometry must match.
func (c *Cache) Restore(st *State) error {
	if st.Sets != c.sets || st.Ways != c.ways {
		return fmt.Errorf("cache: geometry changed across a snapshot: %dx%d state, %dx%d cache",
			st.Sets, st.Ways, c.sets, c.ways)
	}
	copy(c.tags, st.Tags)
	copy(c.age, st.Age)
	copy(c.dirty, st.Dirty)
	c.tick = st.Tick
	return nil
}
