package cache

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

// resident reports whether line is in the tag store, leaving LRU state
// untouched.
func resident(c *Cache, line uint32) bool { return slices.Contains(c.tags, line) }

func TestGeometry(t *testing.T) {
	c := New(64 << 10)
	if c.CapacityBytes() != 64<<10 {
		t.Errorf("CapacityBytes() = %d", c.CapacityBytes())
	}
	if c.sets != 128 { // 512 lines / 4 ways
		t.Errorf("%d sets, want 128", c.sets)
	}
}

func TestTagBytesMatchesPaper(t *testing.T) {
	// The paper reports 1.125 KB of tag storage for the 64 KB cache.
	c := New(64 << 10)
	if got := c.TagBytes(); got != 1152 {
		t.Errorf("TagBytes() = %d, want 1152 (1.125 KB)", got)
	}
}

func TestReadMissThenHit(t *testing.T) {
	c := New(1 << 10)
	if c.Read(5) {
		t.Error("first access should miss")
	}
	if !c.Read(5) {
		t.Error("second access should hit")
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2 KB cache = 16 lines = 4 sets of 4 ways. Lines 0,4,8,12,16 all map
	// to set 0; the fifth fill evicts line 0 (LRU).
	c := New(2 << 10)
	for _, l := range []uint32{0, 4, 8, 12} {
		c.Read(l)
	}
	c.Read(0) // refresh line 0
	c.Read(16)
	if resident(c, 4) {
		t.Error("line 4 should have been the LRU victim")
	}
	if !resident(c, 0) {
		t.Error("refreshed line 0 should survive")
	}
}

func TestWriteThroughNoAllocate(t *testing.T) {
	c := New(1 << 10)
	if c.Write(9) {
		t.Error("write to absent line must not report presence")
	}
	if resident(c, 9) {
		t.Error("write must not allocate")
	}
	c.Read(9)
	if !c.Write(9) {
		t.Error("write to present line should report presence")
	}
}

func TestZeroCapacity(t *testing.T) {
	c := New(0)
	for i := uint32(0); i < 10; i++ {
		if c.Read(i%2) || c.Write(i%2) || resident(c, i%2) {
			t.Fatal("zero-capacity cache must always miss")
		}
	}
}

func TestWorkingSetFitsAfterWarmup(t *testing.T) {
	// A working set smaller than capacity must be fully resident after
	// one pass regardless of access order.
	f := func(seed uint64) bool {
		c := New(8 << 10) // 64 lines
		rng := rand.New(rand.NewPCG(seed, 0))
		lines := make([]uint32, 48)
		for i := range lines {
			lines[i] = uint32(i)
		}
		misses := 0
		for pass := 0; pass < 2; pass++ {
			rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
			for _, l := range lines {
				if !c.Read(l) {
					misses++
				}
			}
		}
		return misses == 48
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHitRateImprovesWithCapacity(t *testing.T) {
	// Cyclic sweep over 128 lines: 8 KB thrashes, 32 KB holds everything.
	run := func(capacity int) int {
		c := New(capacity)
		hits := 0
		for pass := 0; pass < 4; pass++ {
			for l := uint32(0); l < 128; l++ {
				if c.Read(l) {
					hits++
				}
			}
		}
		return hits
	}
	small, large := run(8<<10), run(32<<10)
	if small >= large {
		t.Errorf("hits: small=%d large=%d; larger cache should hit more", small, large)
	}
	if large != 3*128 {
		t.Errorf("large cache hits = %d, want all re-references (384)", large)
	}
}

func TestStringDescribesGeometry(t *testing.T) {
	if s := New(64 << 10).String(); s == "" {
		t.Error("String() empty")
	}
}

func TestTinyCapacityBelowOneSet(t *testing.T) {
	c := New(256) // 2 lines < 4 ways: degrade to a 2-way single set
	if c.Read(0) {
		t.Error("miss expected")
	}
	if !c.Read(0) {
		t.Error("hit expected")
	}
}

func TestAccessAllocateBasics(t *testing.T) {
	c := New(2 << 10) // 4 sets x 4 ways
	hit, vd, _ := c.AccessAllocate(0, true)
	if hit || vd {
		t.Errorf("first access: hit=%v victimDirty=%v", hit, vd)
	}
	hit, _, _ = c.AccessAllocate(0, false)
	if !hit {
		t.Error("second access should hit")
	}
	if c.DirtyLines() != 1 {
		t.Errorf("DirtyLines = %d, want 1", c.DirtyLines())
	}
}

func TestAccessAllocateDirtyEviction(t *testing.T) {
	c := New(2 << 10)         // lines 0,4,8,12 map to set 0
	c.AccessAllocate(0, true) // dirty
	for _, l := range []uint32{4, 8, 12} {
		c.AccessAllocate(l, false)
	}
	hit, vd, victim := c.AccessAllocate(16, false) // evicts line 0 (LRU, dirty)
	if hit {
		t.Error("line 16 should miss")
	}
	if !vd || victim != 0 {
		t.Errorf("victim: dirty=%v line=%d, want dirty line 0", vd, victim)
	}
	if c.DirtyLines() != 0 {
		t.Errorf("DirtyLines = %d after eviction", c.DirtyLines())
	}
}

func TestAccessAllocateCleanEvictionIsFree(t *testing.T) {
	c := New(2 << 10)
	for _, l := range []uint32{0, 4, 8, 12} {
		c.AccessAllocate(l, false)
	}
	_, vd, _ := c.AccessAllocate(16, false)
	if vd {
		t.Error("clean victim must not report writeback")
	}
}

func TestAccessAllocateZeroCapacity(t *testing.T) {
	c := New(0)
	hit, vd, _ := c.AccessAllocate(1, true)
	if hit || vd {
		t.Error("zero-capacity cache should miss with no victim")
	}
}

// TestSetIndexMatchesRemainder checks the division-free set index
// against line % sets: every set count up to 4096 (a 2 MB cache has
// 4096 sets), the set counts near the 32-bit limit, and per count the
// edge lines plus random ones.
func TestSetIndexMatchesRemainder(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	counts := []int{1<<31 - 1, 1 << 31, 1<<32 - 1}
	for sets := 1; sets <= 4096; sets++ {
		counts = append(counts, sets)
	}
	for _, sets := range counts {
		c := &Cache{sets: sets, setMul: setMultiplier(sets)}
		lines := []uint32{0, 1, uint32(sets - 1), uint32(sets), uint32(sets + 1), 1<<31 - 1, 1 << 31, 1<<32 - 2, 1<<32 - 1}
		for range 64 {
			lines = append(lines, rng.Uint32())
		}
		for _, line := range lines {
			if got, want := c.set(line), int(uint64(line)%uint64(sets)); got != want {
				t.Fatalf("set(%d) with %d sets = %d, want %d", line, sets, got, want)
			}
		}
	}
}
