// Package cache implements the SM primary data cache: set associative,
// 128-byte lines, write-through, no-write-allocate, LRU replacement, and a
// single tag port (the one-lookup-per-cycle structural constraint is
// enforced by the SM timing model, which serializes distinct-line accesses).
//
// The cache is purely behavioral — it tracks only tags, never data. The
// write-through policy matters to the paper twice: stores always send their
// bytes to DRAM, and repartitioning the unified memory between kernels never
// has dirty lines to evict (Section 4.4). A write-back write-allocate
// variant (AccessAllocate/DirtyLines) exists for the design-choice ablation.
package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/config"
)

const invalidTag = ^uint32(0)

// Cache is a behavioral set-associative tag store.
type Cache struct {
	sets      int
	ways      int
	lineBytes int
	// setMul is ceil(2^64 / sets), the multiplier that maps a line to
	// its set without a division (see set).
	setMul uint64

	tags  []uint32 // sets * ways entries holding line addresses
	age   []uint32 // LRU timestamps, parallel to tags
	dirty []bool   // write-back mode only
	tick  uint32
}

// New builds a cache of the given capacity. A zero or negative capacity
// yields a cache on which every access misses (the paper's "0 KB cache"
// characterization point).
func New(capacityBytes int) *Cache {
	c := new(Cache)
	c.Reset(capacityBytes)
	return c
}

// Reset empties the cache and gives it the geometry New builds for
// capacityBytes, reusing its arrays when they are large enough: a
// recycled SM frame keeps one tag store across runs of any size.
func (c *Cache) Reset(capacityBytes int) {
	tags, age, dirty := c.tags[:0], c.age[:0], c.dirty[:0]
	*c = Cache{ways: config.CacheWays, lineBytes: config.CacheLineBytes, tags: tags, age: age, dirty: dirty}
	if capacityBytes <= 0 {
		return
	}
	lines := capacityBytes / c.lineBytes
	sets, ways := lines/c.ways, c.ways
	if sets < 1 {
		if lines < 1 {
			return
		}
		sets, ways = 1, lines
	}
	c.sets, c.ways = sets, ways
	c.setMul = setMultiplier(sets)
	n := sets * ways
	c.tags = slices.Grow(tags, n)[:n]
	c.age = slices.Grow(age, n)[:n]
	c.dirty = slices.Grow(dirty, n)[:n]
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	clear(c.age)
	clear(c.dirty)
}

// CopyFrom makes c a copy of src: its geometry, tags, LRU timestamps,
// dirty bits and LRU tick. It reuses c's arrays when they are large
// enough and never aliases src's, which the live cache overwrites on
// every access.
func (c *Cache) CopyFrom(src *Cache) {
	tags, age, dirty := c.tags, c.age, c.dirty
	*c = *src
	c.tags = append(tags[:0], src.tags...)
	c.age = append(age[:0], src.age...)
	c.dirty = append(dirty[:0], src.dirty...)
}

// CapacityBytes returns the cache capacity.
func (c *Cache) CapacityBytes() int { return c.sets * c.ways * c.lineBytes }

// setMultiplier returns ceil(2^64 / sets) (0 for one set, where it
// wraps).
func setMultiplier(sets int) uint64 { return ^uint64(0)/uint64(sets) + 1 }

// set returns the set index of a line address, line mod sets. It uses
// Lemire's division-free remainder: the low 64 bits of setMul*line hold
// the fraction line/sets, and multiplying that fraction by sets leaves
// the remainder in the high 64 bits. The result is exact for every
// 32-bit line and set count (one set gives setMul 0 and remainder 0).
func (c *Cache) set(line uint32) int {
	rem, _ := bits.Mul64(c.setMul*uint64(line), uint64(c.sets))
	return int(rem)
}

// Read probes the cache for the line containing addr and, on a miss,
// fills it (fetch-on-read with LRU eviction; write-through means the
// victim is never dirty). It reports whether the probe hit.
func (c *Cache) Read(line uint32) bool {
	if c.sets == 0 {
		return false
	}
	base := c.set(line) * c.ways
	c.tick++
	victim, oldest := base, c.tick
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == line {
			c.age[i] = c.tick
			return true
		}
		if c.age[i] < oldest {
			victim, oldest = i, c.age[i]
		}
	}
	c.tags[victim] = line
	c.age[victim] = c.tick
	return false
}

// Write performs a write-through, no-write-allocate store touch: if the
// line is present it is refreshed (kept coherent with DRAM), otherwise the
// cache is unchanged. It reports whether the line was present.
func (c *Cache) Write(line uint32) bool {
	if c.sets == 0 {
		return false
	}
	base := c.set(line) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == line {
			c.tick++
			c.age[i] = c.tick
			return true
		}
	}
	return false
}

// AccessAllocate probes for a line with allocate-on-miss semantics (the
// write-back design variant): hits refresh LRU; misses install the line,
// possibly evicting a victim. markDirty marks the line modified. It
// returns whether the probe hit and, when a modified victim was evicted,
// its line address (writeback traffic the caller must account).
func (c *Cache) AccessAllocate(line uint32, markDirty bool) (hit bool, victimDirty bool, victim uint32) {
	if c.sets == 0 {
		return false, false, 0
	}
	base := c.set(line) * c.ways
	c.tick++
	vi, oldest := base, c.tick
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == line {
			c.age[i] = c.tick
			if markDirty {
				c.dirty[i] = true
			}
			return true, false, 0
		}
		if c.age[i] < oldest {
			vi, oldest = i, c.age[i]
		}
	}
	victimDirty = c.dirty[vi] && c.tags[vi] != invalidTag
	victim = c.tags[vi]
	c.tags[vi] = line
	c.age[vi] = c.tick
	c.dirty[vi] = markDirty
	return false, victimDirty, victim
}

// DirtyLines returns the number of modified lines resident (the state a
// write-back design must flush when the unified memory is repartitioned;
// always zero for the write-through design).
func (c *Cache) DirtyLines() int {
	n := 0
	for i, d := range c.dirty {
		if d && c.tags[i] != invalidTag {
			n++
		}
	}
	return n
}

// String describes the geometry.
func (c *Cache) String() string {
	return fmt.Sprintf("cache %dKB %d-way %d sets %dB lines",
		c.CapacityBytes()>>10, c.ways, c.sets, c.lineBytes)
}
