// Package memsys is the SM's global-memory pipeline: the load/store
// unit's coalescer, the primary data cache with its single tag port, the
// pending-line (MSHR) table with in-flight merging and an optional entry
// bound, sectored DRAM fills, and the texture path. It owns the Memory
// interface the SM issues DRAM traffic to.
//
// Each global access returns a typed per-line result (Access: hit, miss,
// or in-flight merge, the touched sector mask, and the data-ready cycle)
// consumed by both the timing core (register-ready cycles) and the
// observability probe (per-access classification). Timing state the rest
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

// AccessStatus classifies one line access.
type AccessStatus uint8

const (
	// AccessHit: the tag probe hit a resident line.
	AccessHit AccessStatus = iota
	// AccessMerged: the access merged with an in-flight fill (MSHR hit).
	AccessMerged
	// AccessMiss: the line was fetched from DRAM.
	AccessMiss
)

// Access is the typed outcome of one distinct-line access of a global
// load: which line, which 32-byte sectors the warp touched, how the tag
// probe resolved, and when the data is ready.
type Access struct {
	Line    uint32
	Sectors uint8
	Status  AccessStatus
	Ready   int64
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

	lineBuf   [isa.WarpSize]uint32
	sectorBuf [isa.WarpSize]uint8
	accBuf    []Access // reused Load result storage
}

// New builds a memory pipeline issuing to mem, filing events into c.
func New(cfg Config, mem Memory, c *stats.Counters) *MemSys {
	return &MemSys{
		cfg:     cfg,
		l1:      cache.New(cfg.CacheBytes),
		mem:     mem,
		c:       c,
		pending: newPendingTable(cfg.MaxMSHRs),
		accBuf:  make([]Access, 0, isa.WarpSize),
	}
}

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

// distinctAddrs counts the distinct per-thread addresses of a memory
// instruction: even without a cache, the load/store unit merges threads
// that access the same address (broadcast reads cost one transaction).
func (m *MemSys) distinctAddrs(wi *isa.WarpInst) int {
	var buf [isa.WarpSize]uint32
	n := 0
	for t := 0; t < isa.WarpSize; t++ {
		if wi.Mask&(1<<uint(t)) == 0 {
			continue
		}
		a := wi.Addrs[t]
		dup := false
		for i := 0; i < n; i++ {
			if buf[i] == a {
				dup = true
				break
			}
		}
		if !dup {
			buf[n] = a
			n++
		}
	}
	return n
}

// SectorBytes is the DRAM fetch granularity within a cache line: misses
// fetch only the 32-byte sectors the warp actually touches (sectored
// fill, as in Fermi-class memory systems), so sparse gathers do not pay
// for full 128-byte lines.
const SectorBytes = 32

// lines collects the distinct cache lines touched by a memory instruction
// (in lane order) and, in sectors, a parallel bitmask of the 32-byte
// sectors touched within each line. sectors may be nil when masks are not
// needed.
func (m *MemSys) lines(wi *isa.WarpInst, buf []uint32, sectors []uint8) ([]uint32, []uint8) {
	buf = buf[:0]
	if sectors != nil {
		sectors = sectors[:0]
	}
	for t := 0; t < isa.WarpSize; t++ {
		if wi.Mask&(1<<uint(t)) == 0 {
			continue
		}
		line := wi.Addrs[t] / config.CacheLineBytes
		sector := uint8(1) << (wi.Addrs[t] % config.CacheLineBytes / SectorBytes)
		// Newest-first: adjacent lanes usually hit the line recorded
		// last (coalesced accesses), so the common duplicate is O(1).
		dup := false
		for i := len(buf) - 1; i >= 0; i-- {
			if buf[i] == line {
				dup = true
				if sectors != nil {
					sectors[i] |= sector
				}
				break
			}
		}
		if !dup {
			buf = append(buf, line)
			if sectors != nil {
				sectors = append(sectors, sector)
			}
		}
	}
	return buf, sectors
}

// popcount8 counts set bits in a sector mask.
func popcount8(x uint8) int { return bits.OnesCount8(x) }

// uncachedGranule is the per-thread DRAM transaction size when no data
// cache is configured. The cache doubles as the SM's coalescing buffer
// (Section 3.1's "bandwidth amplification"): without one, each active
// thread's access becomes its own minimum-size DRAM transaction. This is
// what makes the paper's 0 KB column 3-4x worse for streaming kernels
// (vectoradd 3.88x) yet slightly *better* for needle, whose scattered
// accesses use only a fraction of each 128-byte line a cache would fetch.
const uncachedGranule = 16

// Load performs an LDG issued at now: per distinct line, one tag lookup
// (single tag port, serialized alongside extra bank-conflict cycles),
// then a hit (cache latency), an in-flight merge, or a miss (sectored
// DRAM fetch). It returns the cycle the register result is ready and the
// per-line outcomes; the Access slice is the pipeline's own scratch
// storage, valid until the next Load call.
func (m *MemSys) Load(wi *isa.WarpInst, now, extra int64) (int64, []Access) {
	m.accBuf = m.accBuf[:0]
	if !m.CacheEnabled() {
		// No coalescing buffer: per-thread minimum-size transactions.
		return m.read(now, wi.Addrs[0], uncachedGranule*m.distinctAddrs(wi)), m.accBuf
	}
	lines, sectors := m.lines(wi, m.lineBuf[:], m.sectorBuf[:])

	start := now
	if m.tagFreeAt > start {
		start = m.tagFreeAt
	}
	// Unified-design bank conflicts on the line accesses serialize on the
	// cache port alongside the tag lookups.
	m.tagFreeAt = start + int64(len(lines)) + extra

	worst := now + m.cfg.CacheLatency
	for i, line := range lines {
		lookup := start + int64(i)
		m.c.CacheProbes++
		var ready int64
		status := AccessMiss
		if done, ok := m.pending.get(line); ok && done > lookup {
			// Merge with an in-flight fill (MSHR hit).
			ready = done
			status = AccessMerged
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
				status = AccessHit
				m.c.CacheHits++
				m.c.CacheDataReads++
			} else {
				// Sectored fill: fetch only the touched 32-byte sectors.
				ready = m.read(lookup, line*config.CacheLineBytes, popcount8(sectors[i])*SectorBytes)
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
		m.accBuf = append(m.accBuf, Access{Line: line, Sectors: sectors[i], Status: status, Ready: ready})
		if ready > worst {
			worst = ready
		}
	}
	return worst, m.accBuf
}

// Store performs an STG issued at now: write-through (bytes to DRAM) and
// no-write-allocate (present lines refreshed, absent lines ignored), or
// write-allocate with dirty-victim writebacks in write-back mode.
func (m *MemSys) Store(wi *isa.WarpInst, now, extra int64) {
	if !m.CacheEnabled() {
		// No coalescing buffer: per-thread minimum-size transactions.
		m.write(now, wi.Addrs[0], uncachedGranule*m.distinctAddrs(wi))
		return
	}
	lines, _ := m.lines(wi, m.lineBuf[:], nil)
	start := now
	if m.tagFreeAt > start {
		start = m.tagFreeAt
	}
	m.tagFreeAt = start + int64(len(lines)) + extra
	if m.cfg.WriteBack {
		// Write-allocate: install each line dirty; misses fetch the line
		// and dirty victims write back. No write-through traffic.
		for _, line := range lines {
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
	for _, line := range lines {
		m.c.CacheProbes++
		if m.l1.Write(line) {
			m.c.CacheDataWrites++
		}
	}
	m.write(start, wi.Addrs[0], 4*wi.ActiveThreads())
}

// Tex performs a TEX issued at now: the texture path bypasses the primary
// data cache (it has its own sampler pipeline), so it is modeled as a
// fixed long-latency DRAM read per distinct line. It returns the cycle
// the register result is ready.
func (m *MemSys) Tex(wi *isa.WarpInst, now int64) int64 {
	lines, sectors := m.lines(wi, m.lineBuf[:], m.sectorBuf[:])
	worst := now + m.cfg.TexLatency
	for i := range lines {
		done := m.read(now, lines[i]*config.CacheLineBytes, popcount8(sectors[i])*SectorBytes) -
			m.cfg.DRAMLatency + m.cfg.TexLatency
		if done > worst {
			worst = done
		}
	}
	return worst
}
