package memsys

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/stats"
)

// memEvent records one DRAM transaction seen by the fake memory.
type memEvent struct {
	now   int64
	addr  uint32
	bytes int
}

// fixedMem is a Memory with a fixed read latency that records all traffic.
type fixedMem struct {
	latency int64
	reads   []memEvent
	writes  []memEvent
}

func (m *fixedMem) Read(now int64, addr uint32, bytes int) int64 {
	m.reads = append(m.reads, memEvent{now, addr, bytes})
	return now + m.latency
}

func (m *fixedMem) Write(now int64, addr uint32, bytes int) {
	m.writes = append(m.writes, memEvent{now, addr, bytes})
}

// ldg builds a full-warp global load with per-lane addresses.
func ldg(addr func(lane int) uint32) *isa.WarpInst {
	var av isa.AddrVec
	for t := 0; t < isa.WarpSize; t++ {
		av[t] = addr(t)
	}
	return &isa.WarpInst{Op: isa.OpLDG, Mask: isa.FullMask, Addrs: &av}
}

// stg builds a full-warp global store with per-lane addresses.
func stg(addr func(lane int) uint32) *isa.WarpInst {
	wi := ldg(addr)
	wi.Op = isa.OpSTG
	return wi
}

func newTestMemSys(mem Memory, maxMSHRs int, writeBack bool, cacheBytes int) (*MemSys, *stats.Counters) {
	c := &stats.Counters{}
	m := New(Config{
		CacheBytes:   cacheBytes,
		CacheLatency: 20,
		TexLatency:   400,
		DRAMLatency:  100,
		MaxMSHRs:     maxMSHRs,
		WriteBack:    writeBack,
	}, mem, c)
	return m, c
}

func TestMSHRMergeInFlight(t *testing.T) {
	mem := &fixedMem{latency: 200}
	m, c := newTestMemSys(mem, 0, false, 64<<10)

	// Cold miss: one sectored fill leaves line 0 in flight until 200.
	ready, accs := m.Load(ldg(func(l int) uint32 { return uint32(l) * 4 }), 0, 0)
	if len(accs) != 1 || accs[0].Status != AccessMiss {
		t.Fatalf("cold load: accs = %+v, want one miss", accs)
	}
	if ready != 200 {
		t.Fatalf("cold load ready = %d, want 200", ready)
	}

	// A second load of the same line while the fill is outstanding merges
	// with it (MSHR hit): same ready cycle, no new DRAM traffic.
	ready2, accs2 := m.Load(ldg(func(l int) uint32 { return uint32(l) * 4 }), 1, 0)
	if len(accs2) != 1 || accs2[0].Status != AccessMerged {
		t.Fatalf("merged load: accs = %+v, want one merge", accs2)
	}
	if ready2 != 200 {
		t.Errorf("merged load ready = %d, want the in-flight fill's 200", ready2)
	}
	if len(mem.reads) != 1 {
		t.Errorf("merge issued %d DRAM reads, want 1", len(mem.reads))
	}
	if c.CacheHits != 1 || c.CacheMisses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1 (merge counts as a hit)", c.CacheHits, c.CacheMisses)
	}

	// After the fill lands, the line is resident: a plain tag hit.
	ready3, accs3 := m.Load(ldg(func(l int) uint32 { return uint32(l) * 4 }), 300, 0)
	if accs3[0].Status != AccessHit {
		t.Errorf("post-fill load status = %v, want AccessHit", accs3[0].Status)
	}
	if want := int64(300 + 20); ready3 != want {
		t.Errorf("hit ready = %d, want %d (lookup + cache latency)", ready3, want)
	}
}

func TestMSHRBoundEvictsAndStalls(t *testing.T) {
	mem := &fixedMem{latency: 100}
	m, _ := newTestMemSys(mem, 1, false, 64<<10)

	// Fill the single MSHR with line 0 (in flight until 100).
	m.Load(ldg(func(l int) uint32 { return uint32(l) * 4 }), 0, 0)
	if got := m.InFlight(0); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}

	// A miss to a new line finds every MSHR busy: its lookup stalls until
	// the earliest outstanding fill (cycle 100) retires, then pays its own
	// DRAM trip. The stall window is exported for the stall classifier.
	ready, accs := m.Load(ldg(func(l int) uint32 { return 4096 + uint32(l)*4 }), 1, 0)
	if accs[0].Status != AccessMiss {
		t.Fatalf("second load status = %v, want AccessMiss", accs[0].Status)
	}
	if want := int64(200); ready != want {
		t.Errorf("MSHR-blocked miss ready = %d, want %d (retire at 100 + 100 latency)", ready, want)
	}
	if m.MSHRBlockedUntil() != 100 {
		t.Errorf("MSHRBlockedUntil = %d, want 100", m.MSHRBlockedUntil())
	}
	if got := m.InFlight(1); got != 1 {
		t.Errorf("InFlight after eviction = %d, want 1 (old entry evicted)", got)
	}
}

// TestInFlightCountsOnlyOutstanding: fills whose data has arrived are
// no longer in flight, whether or not the pending table still holds
// them.
func TestInFlightCountsOnlyOutstanding(t *testing.T) {
	mem := &fixedMem{latency: 100}
	m, _ := newTestMemSys(mem, 0, false, 64<<10)
	const misses = 200
	for i := 0; i < misses; i++ {
		base := uint32(i) * config.CacheLineBytes
		m.Load(ldg(func(l int) uint32 { return base + uint32(l)*4 }), int64(i), 0)
	}
	if got := m.InFlight(misses - 1); got == 0 {
		t.Fatalf("InFlight right after %d misses = 0, want some outstanding", misses)
	}
	if got := m.InFlight(1 << 20); got != 0 {
		t.Errorf("InFlight long after every fill landed = %d, want 0", got)
	}
}

// TestUnboundedPendingTableTracksInFlightNotFootprint: an unbounded
// table retires arrived fills instead of growing, so streaming over a
// large footprint with few fills in flight keeps it small.
func TestUnboundedPendingTableTracksInFlightNotFootprint(t *testing.T) {
	mem := &fixedMem{latency: 100}
	m, _ := newTestMemSys(mem, 0, false, 64<<10)
	for i := 0; i < 100000; i++ {
		base := uint32(i) * config.CacheLineBytes
		m.Load(ldg(func(l int) uint32 { return base + uint32(l)*4 }), int64(10*i), 0)
	}
	// About ten fills are in flight at any time (100-cycle latency, one
	// miss every 10 cycles).
	if slots := len(m.pending.keys); slots > 4*minPendingSlots {
		t.Errorf("pending table grew to %d slots for ~10 fills in flight", slots)
	}
}

func TestSectorMaskCoalescing(t *testing.T) {
	mem := &fixedMem{latency: 100}
	m, c := newTestMemSys(mem, 0, false, 64<<10)

	// A unit-stride warp load covers exactly one 128-byte line: one access
	// with all four 32-byte sectors touched, fetching the full line.
	_, accs := m.Load(ldg(func(l int) uint32 { return uint32(l) * 4 }), 0, 0)
	if len(accs) != 1 {
		t.Fatalf("coalesced load produced %d line accesses, want 1", len(accs))
	}
	if accs[0].Sectors != 0x0F {
		t.Errorf("coalesced sector mask = %#x, want 0x0f", accs[0].Sectors)
	}
	if c.DRAMReadBytes != 128 {
		t.Errorf("coalesced fill read %d bytes, want 128", c.DRAMReadBytes)
	}

	// A 128-byte-stride gather touches one word in each of 32 lines: 32
	// accesses, each fetching a single sector.
	mem2 := &fixedMem{latency: 100}
	m2, c2 := newTestMemSys(mem2, 0, false, 64<<10)
	_, accs2 := m2.Load(ldg(func(l int) uint32 { return uint32(l) * 128 }), 0, 0)
	if len(accs2) != 32 {
		t.Fatalf("gather produced %d line accesses, want 32", len(accs2))
	}
	for i, a := range accs2 {
		if a.Sectors != 0x01 {
			t.Fatalf("gather access %d sector mask = %#x, want 0x01", i, a.Sectors)
		}
	}
	if c2.DRAMReadBytes != 32*SectorBytes {
		t.Errorf("sectored gather read %d bytes, want %d", c2.DRAMReadBytes, 32*SectorBytes)
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	// A one-set cache (ways * 128 bytes): filling it with dirty lines and
	// storing to one more forces a dirty-victim writeback of the LRU line.
	mem := &fixedMem{latency: 100}
	m, c := newTestMemSys(mem, 0, true, config.CacheWays*config.CacheLineBytes)

	for i := 0; i <= config.CacheWays; i++ {
		line := uint32(i)
		m.Store(stg(func(l int) uint32 { return line*config.CacheLineBytes + uint32(l)*4 }), int64(i*10), 0)
	}
	if len(mem.writes) != 1 {
		t.Fatalf("dirty eviction wrote %d times, want 1", len(mem.writes))
	}
	if w := mem.writes[0]; w.addr != 0 || w.bytes != config.CacheLineBytes {
		t.Errorf("writeback = %+v, want the full LRU line 0", w)
	}
	if m.DirtyLines() != config.CacheWays {
		t.Errorf("DirtyLines = %d, want %d (cache full of dirty lines)", m.DirtyLines(), config.CacheWays)
	}
	// Write-allocate fetches every missed line.
	if c.CacheMisses != int64(config.CacheWays)+1 {
		t.Errorf("CacheMisses = %d, want %d", c.CacheMisses, config.CacheWays+1)
	}
}

func TestWriteThroughNeverDirty(t *testing.T) {
	mem := &fixedMem{latency: 100}
	m, _ := newTestMemSys(mem, 0, false, 64<<10)
	for i := 0; i < 8; i++ {
		line := uint32(i)
		m.Store(stg(func(l int) uint32 { return line*config.CacheLineBytes + uint32(l)*4 }), int64(i), 0)
	}
	if m.DirtyLines() != 0 {
		t.Errorf("write-through cache has %d dirty lines, want 0", m.DirtyLines())
	}
	if len(mem.writes) != 8 {
		t.Errorf("write-through posted %d DRAM writes, want 8", len(mem.writes))
	}
}

// TestLoadReadyMonotoneInNow is the property the SM timing core depends
// on: for the same access sequence against the real DRAM model, issuing
// every load delta cycles later never produces an earlier data-ready
// cycle. Exercises hits, misses, in-flight merges, tag-port backpressure,
// and the bounded-MSHR stall path.
func TestLoadReadyMonotoneInNow(t *testing.T) {
	f := func(seed uint64, deltaRaw uint16, mshrRaw uint8) bool {
		delta := int64(deltaRaw)
		maxMSHRs := []int{0, 1, 4}[int(mshrRaw)%3]

		run := func(shift int64) []int64 {
			m, _ := newTestMemSys(dram.New(dram.DefaultConfig()), maxMSHRs, false, 4<<10)
			rng := rand.New(rand.NewPCG(seed, 7))
			now := shift
			var readys []int64
			for i := 0; i < 40; i++ {
				base := rng.Uint32N(1 << 14)
				stride := []uint32{4, 128, 0}[rng.Uint32N(3)]
				ready, _ := m.Load(ldg(func(l int) uint32 { return base + uint32(l)*stride }), now, 0)
				readys = append(readys, ready)
				now += int64(rng.Uint32N(50))
			}
			return readys
		}

		early, late := run(0), run(delta)
		for i := range early {
			if late[i] < early[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
