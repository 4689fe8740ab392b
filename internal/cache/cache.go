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

	hits, misses int64
}

// New builds a cache of the given capacity. A zero or negative capacity
// yields a cache on which every access misses (the paper's "0 KB cache"
// characterization point).
func New(capacityBytes int) *Cache {
	c := &Cache{ways: config.CacheWays, lineBytes: config.CacheLineBytes}
	if capacityBytes <= 0 {
		return c
	}
	lines := capacityBytes / c.lineBytes
	c.sets = lines / c.ways
	if c.sets < 1 {
		c.sets = 1
		c.ways = lines
		if c.ways < 1 {
			return &Cache{ways: config.CacheWays, lineBytes: config.CacheLineBytes}
		}
	}
	c.setMul = setMultiplier(c.sets)
	c.tags = make([]uint32, c.sets*c.ways)
	c.age = make([]uint32, c.sets*c.ways)
	c.dirty = make([]bool, c.sets*c.ways)
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// CapacityBytes returns the cache capacity.
func (c *Cache) CapacityBytes() int { return c.sets * c.ways * c.lineBytes }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Hits returns the cumulative hit count.
func (c *Cache) Hits() int64 { return c.hits }

// Misses returns the cumulative miss count.
func (c *Cache) Misses() int64 { return c.misses }

// TagBytes returns an estimate of the tag storage this cache requires,
// assuming 4-byte tag+state entries per line (the paper reports 1.125 KB
// for a 64 KB cache and up to 7.125 KB for a fully cache-configured 384 KB
// unified memory; the constant below reproduces those totals: 18 bits of
// tag + state per 128-byte line).
func (c *Cache) TagBytes() int {
	lines := c.sets * c.ways
	return lines * 18 / 8
}

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
		c.misses++
		return false
	}
	base := c.set(line) * c.ways
	c.tick++
	victim, oldest := base, c.tick
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == line {
			c.age[i] = c.tick
			c.hits++
			return true
		}
		if c.age[i] < oldest {
			victim, oldest = i, c.age[i]
		}
	}
	c.misses++
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

// Contains reports whether the line is resident, without updating LRU
// state or counters.
func (c *Cache) Contains(line uint32) bool {
	if c.sets == 0 {
		return false
	}
	base := c.set(line) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == line {
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
		c.misses++
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
			c.hits++
			return true, false, 0
		}
		if c.age[i] < oldest {
			vi, oldest = i, c.age[i]
		}
	}
	c.misses++
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

// Flush invalidates all lines (used when the unified memory is
// repartitioned between kernels; write-through means no data movement is
// needed, only tag invalidation).
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	for i := range c.dirty {
		c.dirty[i] = false
	}
}

// String describes the geometry.
func (c *Cache) String() string {
	return fmt.Sprintf("cache %dKB %d-way %d sets %dB lines",
		c.CapacityBytes()>>10, c.ways, c.sets, c.lineBytes)
}
