// Package memsys is the SM's global-memory pipeline: the load/store
// unit's coalescer, the primary data cache with its single tag port, the
// pending-line (MSHR) table with in-flight merging and an optional entry
// bound, sectored DRAM fills, and the texture path. It owns the Memory
// interface the SM issues DRAM traffic to.
//
// A global load returns the cycle its register result is ready and files
// hits, misses and traffic in the run's counters. Timing state the rest
// of the SM needs — the tag-port drain cycle for run finalization and the
// all-MSHRs-in-flight window for stall attribution — is exposed through
// accessors rather than shared fields, so the memory pipeline can be
// modified (or replaced) without touching the scheduler or dispatch
// layers.
package memsys

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/stats"
)

// Memory is the DRAM system the pipeline issues global traffic to. A
// private single-channel dram.DRAM satisfies it for single-SM runs; the
// chip simulator injects a shared channel-interleaved system.
type Memory interface {
	// Read schedules a read and returns the data-ready cycle.
	Read(now int64, addr uint32, bytes int) int64
	// Write posts a write.
	Write(now int64, addr uint32, bytes int)
}

// Config holds the memory-pipeline parameters (a slice of sm.Params).
type Config struct {
	// CacheBytes is the primary data cache capacity; zero disables the
	// cache and its coalescing buffer (per-thread DRAM transactions).
	CacheBytes int
	// CacheLatency is the cache hit latency in cycles.
	CacheLatency int64
	// TexLatency is the texture-path latency in cycles.
	TexLatency int64
	// DRAMLatency is the DRAM access latency, used to rebase texture
	// fetches onto the sampler pipeline's latency.
	DRAMLatency int64
	// MaxMSHRs bounds outstanding cache misses; zero means unbounded.
	MaxMSHRs int
	// WriteBack replaces the paper's write-through no-write-allocate
	// cache with a write-back write-allocate one.
	WriteBack bool
}

// MemSys is one SM's global-memory pipeline. It is not safe for
// concurrent use; each simulated SM owns one.
type MemSys struct {
	cfg Config
	l1  *cache.Cache
	mem Memory
	c   *stats.Counters

	pending   *pendingTable // in-flight line fills: line -> data-ready cycle
	tagFreeAt int64         // cache tag port busy until
	// mshrBlockedUntil marks the end of the current window in which all
	// cache miss entries are in flight (MaxMSHRs reached); the stall
	// classifier attributes memory waits inside it to MSHR pressure.
	mshrBlockedUntil int64

	fpBuf [maxFootprintWords]uint32 // Footprint result storage
}

// New builds a memory pipeline issuing to mem, filing events into c.
func New(cfg Config, mem Memory, c *stats.Counters) *MemSys {
	m := new(MemSys)
	m.Reset(cfg, mem, c)
	return m
}

// Reset readies the pipeline for a new run exactly as New builds it —
// an empty cache of cfg.CacheBytes, no fill in flight, an idle tag
// port — reusing its tag store, pending table and scratch buffers.
func (m *MemSys) Reset(cfg Config, mem Memory, c *stats.Counters) {
	l1, pending := m.l1, m.pending
	if l1 == nil {
		l1, pending = new(cache.Cache), new(pendingTable)
	}
	l1.Reset(cfg.CacheBytes)
	pending.reset(cfg.MaxMSHRs)
	*m = MemSys{cfg: cfg, l1: l1, mem: mem, c: c, pending: pending}
}

// Detach drops the pipeline's references to its run's memory system
// and counters, so a recycled pipeline keeps nothing of a finished run
// alive. Reset readies it again.
func (m *MemSys) Detach() { m.mem, m.c = nil, nil }

// Charge retargets the pipeline's event counters to c: the SM points it
// at the issuing stream's counter set before each memory instruction, so
// every cache and DRAM event lands in exactly one stream's books.
func (m *MemSys) Charge(c *stats.Counters) { m.c = c }

// CacheEnabled reports whether a data cache is configured.
func (m *MemSys) CacheEnabled() bool { return m.cfg.CacheBytes > 0 }

// TagFreeAt returns the cycle the cache tag port drains; a run is not
// finished until posted tag-port work completes.
func (m *MemSys) TagFreeAt() int64 { return m.tagFreeAt }

// MSHRBlockedUntil returns the end of the current all-MSHRs-in-flight
// window (zero when the MSHR table has never saturated). Issue slots
// lost inside the window are charged to MSHR pressure by the stall
// classifier.
func (m *MemSys) MSHRBlockedUntil() int64 { return m.mshrBlockedUntil }

// InFlight returns the number of line fills still outstanding at now
// (data-ready cycle after now).
func (m *MemSys) InFlight(now int64) int {
	n := 0
	for i, u := range m.pending.used {
		if u && m.pending.vals[i] > now {
			n++
		}
	}
	return n
}

// DirtyLines returns the number of modified lines resident in the cache
// (always zero for the write-through design).
func (m *MemSys) DirtyLines() int { return m.l1.DirtyLines() }

// read issues a DRAM read and accounts its bytes.
func (m *MemSys) read(now int64, addr uint32, bytes int) int64 {
	m.c.DRAMReadBytes += int64(bytes)
	return m.mem.Read(now, addr, bytes)
}

// write posts a DRAM write and accounts its bytes.
func (m *MemSys) write(now int64, addr uint32, bytes int) {
	m.c.DRAMWriteBytes += int64(bytes)
	m.mem.Write(now, addr, bytes)
}

// SectorBytes is the DRAM fetch granularity within a cache line: misses
// fetch only the 32-byte sectors the warp actually touches (sectored
// fill, as in Fermi-class memory systems), so sparse gathers do not pay
// for full 128-byte lines.
const SectorBytes = 32

// uncachedGranule is the per-thread DRAM transaction size when no data
// cache is configured. The cache doubles as the SM's coalescing buffer
// (Section 3.1's "bandwidth amplification"): without one, each active
// thread's access becomes its own minimum-size DRAM transaction. This is
// what makes the paper's 0 KB column 3-4x worse for streaming kernels
// (vectoradd 3.88x) yet slightly *better* for needle, whose scattered
// accesses use only a fraction of each 128-byte line a cache would fetch.
const uncachedGranule = 16

// Footprint computes wi's footprint into the pipeline's scratch storage,
// valid until the next call: the path for instructions whose trace
// source memoizes none.
func (m *MemSys) Footprint(wi *isa.WarpInst) Footprint {
	return appendFootprint(m.fpBuf[:0], wi)
}

// Load performs the LDG wi issued at now; see LoadFootprint.
func (m *MemSys) Load(wi *isa.WarpInst, now, extra int64) int64 {
	return m.LoadFootprint(m.Footprint(wi), now, extra)
}

// LoadFootprint performs an LDG with footprint fp issued at now: per
// distinct line, one tag lookup (single tag port, serialized alongside
// extra bank-conflict cycles; lookup i happens at the port's start plus
// i), then a hit (cache latency), an in-flight merge, or a miss (sectored
// DRAM fetch). It returns the cycle the register result is ready.
func (m *MemSys) LoadFootprint(fp Footprint, now, extra int64) int64 {
	if !m.CacheEnabled() {
		// No coalescing buffer: per-thread minimum-size transactions.
		return m.read(now, fp.Addr0(), uncachedGranule*fp.Distinct())
	}
	n := fp.Lines()

	start := now
	if m.tagFreeAt > start {
		start = m.tagFreeAt
	}
	// Unified-design bank conflicts on the line accesses serialize on the
	// cache port alongside the tag lookups.
	m.tagFreeAt = start + int64(n) + extra

	worst := now + m.cfg.CacheLatency
	for i := 0; i < n; i++ {
		line, sectors := fp.Line(i)
		lookup := start + int64(i)
		m.c.CacheProbes++
		var ready int64
		if done, ok := m.pending.get(line); ok && done > lookup {
			// Merge with an in-flight fill (MSHR hit).
			ready = done
			m.c.CacheHits++
			m.c.CacheDataReads++
		} else {
			if ok {
				m.pending.del(line)
			}
			if m.cfg.MaxMSHRs > 0 && m.pending.len() >= m.cfg.MaxMSHRs {
				// Fills that arrived by start are dead (this and every
				// later lookup is at or after start) and free their
				// entries first.
				m.pending.retire(start)
			}
			if m.cfg.MaxMSHRs > 0 && m.pending.len() >= m.cfg.MaxMSHRs {
				// All miss entries in flight: the lookup stalls until the
				// earliest outstanding fill returns. Ties on the ready
				// cycle break by line number so the choice never depends
				// on table layout (runs must be bit-reproducible).
				_, earliest := m.pending.evictEarliest()
				if earliest > lookup {
					lookup = earliest
					// The issue slots until the entry retires are lost
					// to MSHR pressure; the stall classifier gives this
					// window priority over plain scoreboard waits.
					if earliest > m.mshrBlockedUntil {
						m.mshrBlockedUntil = earliest
					}
				}
			}
			hit := false
			if m.cfg.WriteBack {
				var victimDirty bool
				var victim uint32
				hit, victimDirty, victim = m.l1.AccessAllocate(line, false)
				if victimDirty {
					// Dirty eviction: read the victim from the data
					// array and write the full line back to DRAM.
					m.c.CacheDataReads++
					m.write(lookup, victim*config.CacheLineBytes, config.CacheLineBytes)
				}
			} else {
				hit = m.l1.Read(line)
			}
			if hit {
				ready = lookup + m.cfg.CacheLatency
				m.c.CacheHits++
				m.c.CacheDataReads++
			} else {
				// Sectored fill: fetch only the touched 32-byte sectors.
				ready = m.read(lookup, line*config.CacheLineBytes, bits.OnesCount8(sectors)*SectorBytes)
				m.c.CacheMisses++
				// The line is already installed; remember when its data
				// actually arrives.
				if m.cfg.MaxMSHRs == 0 {
					m.pending.reserve(start)
				}
				m.pending.put(line, ready)
				m.c.CacheDataWrites++ // fill
			}
		}
		if ready > worst {
			worst = ready
		}
	}
	return worst
}

// Store performs the STG wi issued at now; see StoreFootprint.
func (m *MemSys) Store(wi *isa.WarpInst, now, extra int64) {
	m.StoreFootprint(m.Footprint(wi), now, extra)
}

// StoreFootprint performs an STG with footprint fp issued at now:
// write-through (bytes to DRAM) and no-write-allocate (present lines
// refreshed, absent lines ignored), or write-allocate with dirty-victim
// writebacks in write-back mode.
func (m *MemSys) StoreFootprint(fp Footprint, now, extra int64) {
	if !m.CacheEnabled() {
		// No coalescing buffer: per-thread minimum-size transactions.
		m.write(now, fp.Addr0(), uncachedGranule*fp.Distinct())
		return
	}
	n := fp.Lines()
	start := now
	if m.tagFreeAt > start {
		start = m.tagFreeAt
	}
	m.tagFreeAt = start + int64(n) + extra
	if m.cfg.WriteBack {
		// Write-allocate: install each line dirty; misses fetch the line
		// and dirty victims write back. No write-through traffic.
		for i := 0; i < n; i++ {
			line, _ := fp.Line(i)
			m.c.CacheProbes++
			hit, victimDirty, victim := m.l1.AccessAllocate(line, true)
			m.c.CacheDataWrites++
			if !hit {
				m.read(start, line*config.CacheLineBytes, config.CacheLineBytes)
				m.c.CacheMisses++
			} else {
				m.c.CacheHits++
			}
			if victimDirty {
				m.c.CacheDataReads++
				m.write(start, victim*config.CacheLineBytes, config.CacheLineBytes)
			}
		}
		return
	}
	for i := 0; i < n; i++ {
		line, _ := fp.Line(i)
		m.c.CacheProbes++
		if m.l1.Write(line) {
			m.c.CacheDataWrites++
		}
	}
	m.write(start, fp.Addr0(), 4*fp.Active())
}

// TexFootprint performs a TEX with footprint fp issued at now: the
// texture path bypasses the primary data cache (it has its own sampler
// pipeline), so it is modeled as a fixed long-latency DRAM read per
// distinct line. It returns the cycle the register result is ready.
func (m *MemSys) TexFootprint(fp Footprint, now int64) int64 {
	worst := now + m.cfg.TexLatency
	for i := 0; i < fp.Lines(); i++ {
		line, sectors := fp.Line(i)
		done := m.read(now, line*config.CacheLineBytes, bits.OnesCount8(sectors)*SectorBytes) -
			m.cfg.DRAMLatency + m.cfg.TexLatency
		if done > worst {
			worst = done
		}
	}
	return worst
}
