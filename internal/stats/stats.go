// Package stats collects the event counters produced by a simulation run.
//
// The counters feed three consumers: the performance report (cycles,
// instructions), the bank-conflict characterization of Table 5, and the
// energy model of internal/energy (per-structure access counts and DRAM
// bytes).
package stats

import (
	"fmt"

	"repro/internal/isa"
)

// ConflictBuckets is the number of buckets in the bank-conflict histogram:
// <=1, 2, 3, 4, >4 maximum accesses to a single bank per warp instruction
// (the Table 5 breakdown).
const ConflictBuckets = 5

// Counters accumulates all events of one simulation run.
type Counters struct {
	// Cycles is the total execution time of the run in SM cycles.
	Cycles int64
	// WarpInsts is the number of warp instructions issued, including
	// spill and fill instructions.
	WarpInsts int64
	// SpillInsts is the number of warp instructions that were inserted
	// by the register allocator (spill stores + fill loads).
	SpillInsts int64
	// ThreadInsts is the number of thread instructions (warp instructions
	// weighted by active threads).
	ThreadInsts int64

	// ConflictHist[i] counts warp instructions whose most-contended
	// memory bank received i+1 accesses; the last bucket counts >4.
	ConflictHist [ConflictBuckets]int64
	// ConflictCycles is the total issue-slot cycles lost to bank
	// serialization (sum over instructions of max-per-bank accesses - 1).
	ConflictCycles int64
	// ArbitrationConflicts counts unified-design conflicts in which a
	// register operand and a shmem/cache access contended for one bank.
	ArbitrationConflicts int64

	// Register file hierarchy accesses (per warp instruction operand,
	// i.e. one access serves all active threads of a 4-lane cluster bank;
	// energy accounting scales these by the bank count touched).
	MRFReads, MRFWrites int64
	ORFReads, ORFWrites int64
	LRFReads, LRFWrites int64

	// Shared memory accesses, counted per touched bank.
	SharedReads, SharedWrites int64

	// Cache events. Probes are tag lookups (one per distinct line touched
	// by a warp instruction); data accesses are counted per touched bank.
	CacheProbes     int64
	CacheHits       int64
	CacheMisses     int64
	CacheDataReads  int64
	CacheDataWrites int64

	// DRAM traffic in bytes.
	DRAMReadBytes  int64
	DRAMWriteBytes int64

	// CTAsRetired counts cooperative thread arrays run to completion.
	CTAsRetired int64
	// ThreadsRun counts threads launched.
	ThreadsRun int64
	// MaxResidentThreads is the high-water mark of concurrently resident
	// threads on the SM.
	MaxResidentThreads int
	// DirtyLinesEnd is the number of modified cache lines resident when
	// the run finished: the flush a write-back design would owe at the
	// next repartitioning. Always zero for the write-through design.
	DirtyLinesEnd int
}

// RecordConflict files a warp instruction whose most-contended bank saw
// maxAccesses accesses and charges the serialization penalty.
func (c *Counters) RecordConflict(maxAccesses int) {
	if maxAccesses < 1 {
		maxAccesses = 1
	}
	bucket := maxAccesses - 1
	if bucket >= ConflictBuckets {
		bucket = ConflictBuckets - 1
	}
	c.ConflictHist[bucket]++
	c.ConflictCycles += int64(maxAccesses - 1)
}

// RecordRegAccesses files one warp instruction's register hierarchy
// events (per-space operand reads and writes) for the energy model.
func (c *Counters) RecordRegAccesses(r isa.RegAccesses) {
	c.MRFReads += r.Reads(isa.SpaceMRF)
	c.ORFReads += r.Reads(isa.SpaceORF)
	c.LRFReads += r.Reads(isa.SpaceLRF)
	c.MRFWrites += r.Writes(isa.SpaceMRF)
	c.ORFWrites += r.Writes(isa.SpaceORF)
	c.LRFWrites += r.Writes(isa.SpaceLRF)
}

// DRAMBytes returns total DRAM traffic in bytes.
func (c *Counters) DRAMBytes() int64 { return c.DRAMReadBytes + c.DRAMWriteBytes }

// DRAMAccesses returns DRAM traffic expressed in 32-byte minimum-fetch
// transactions, the unit the paper's "DRAM accesses" metric uses.
func (c *Counters) DRAMAccesses() int64 { return (c.DRAMBytes() + 31) / 32 }

// MRFAccessFraction returns the fraction of register operand accesses
// (reads and writes) served by the MRF rather than the ORF/LRF. The
// two-level hierarchy of the paper reduces this to roughly 40%.
func (c *Counters) MRFAccessFraction() float64 {
	mrf := c.MRFReads + c.MRFWrites
	all := mrf + c.ORFReads + c.ORFWrites + c.LRFReads + c.LRFWrites
	if all == 0 {
		return 0
	}
	return float64(mrf) / float64(all)
}

// CacheHitRate returns the fraction of cache probes that hit.
func (c *Counters) CacheHitRate() float64 {
	if c.CacheProbes == 0 {
		return 0
	}
	return float64(c.CacheHits) / float64(c.CacheProbes)
}

// IPC returns warp instructions per cycle.
func (c *Counters) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.WarpInsts) / float64(c.Cycles)
}

// ThreadIPC returns thread instructions per cycle (warp instructions
// weighted by their active threads; peak is the SM's 32 lanes). Unlike
// normalized performance figures, this is an absolute metric.
func (c *Counters) ThreadIPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.ThreadInsts) / float64(c.Cycles)
}

// ConflictFractions returns the Table 5 row: the fraction of warp
// instructions in each max-accesses-per-bank bucket.
func (c *Counters) ConflictFractions() [ConflictBuckets]float64 {
	var out [ConflictBuckets]float64
	total := int64(0)
	for _, v := range c.ConflictHist {
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range c.ConflictHist {
		out[i] = float64(v) / float64(total)
	}
	return out
}

// Add accumulates other into c.
func (c *Counters) Add(other *Counters) {
	c.Cycles += other.Cycles
	c.WarpInsts += other.WarpInsts
	c.SpillInsts += other.SpillInsts
	c.ThreadInsts += other.ThreadInsts
	for i := range c.ConflictHist {
		c.ConflictHist[i] += other.ConflictHist[i]
	}
	c.ConflictCycles += other.ConflictCycles
	c.ArbitrationConflicts += other.ArbitrationConflicts
	c.MRFReads += other.MRFReads
	c.MRFWrites += other.MRFWrites
	c.ORFReads += other.ORFReads
	c.ORFWrites += other.ORFWrites
	c.LRFReads += other.LRFReads
	c.LRFWrites += other.LRFWrites
	c.SharedReads += other.SharedReads
	c.SharedWrites += other.SharedWrites
	c.CacheProbes += other.CacheProbes
	c.CacheHits += other.CacheHits
	c.CacheMisses += other.CacheMisses
	c.CacheDataReads += other.CacheDataReads
	c.CacheDataWrites += other.CacheDataWrites
	c.DRAMReadBytes += other.DRAMReadBytes
	c.DRAMWriteBytes += other.DRAMWriteBytes
	c.CTAsRetired += other.CTAsRetired
	c.ThreadsRun += other.ThreadsRun
	if other.MaxResidentThreads > c.MaxResidentThreads {
		c.MaxResidentThreads = other.MaxResidentThreads
	}
	c.DirtyLinesEnd += other.DirtyLinesEnd
}

// String summarizes the headline counters.
func (c *Counters) String() string {
	return fmt.Sprintf("cycles=%d insts=%d ipc=%.3f cacheHit=%.3f dramBytes=%d",
		c.Cycles, c.WarpInsts, c.IPC(), c.CacheHitRate(), c.DRAMBytes())
}
