// Package dram models the SM's share of the chip-wide DRAM system as a
// single bandwidth-limited channel with fixed access latency.
//
// Following the paper's methodology (Section 5.1), a single simulated SM
// receives 8 bytes/cycle of DRAM bandwidth — 1/32 of the chip's 256
// bytes/cycle — and every access observes a 400-cycle latency on top of
// queueing and transfer time. Byte counts are tracked exactly; they drive
// both the DRAM-traffic results (Figure 9) and DRAM energy (40 pJ/bit).
package dram

import "fmt"

// Config parameterizes the channel.
type Config struct {
	// BytesPerCycle is the sustained bandwidth share (8 in the paper).
	BytesPerCycle int
	// LatencyCycles is the fixed access latency (400 in the paper).
	LatencyCycles int64
	// RowBytes enables an open-row model: consecutive accesses that fall
	// in the same RowBytes-sized row skip the activate/precharge portion
	// of the latency (RowMissPenalty). Zero keeps the paper's flat
	// latency.
	RowBytes uint32
	// RowMissPenalty is the extra latency of a row miss relative to a
	// row hit (default 100 cycles when RowBytes is set).
	RowMissPenalty int64
}

// DefaultConfig returns the paper's Table 2 DRAM parameters.
func DefaultConfig() Config {
	return Config{BytesPerCycle: 8, LatencyCycles: 400}
}

// DRAM is the channel model. It is cycle-agnostic: callers pass the current
// cycle and receive completion cycles.
type DRAM struct {
	cfg       Config
	busFreeAt int64

	reads      int64
	writes     int64
	stallCycle int64 // cumulative queueing delay observed by reads

	openRow   uint32
	hasRow    bool
	rowHits   int64
	rowMisses int64
}

// Normalized returns the configuration with zero fields replaced by the
// Table 2 defaults, exactly as New applies them — so callers that need
// the effective values (SetConfig) agree with the channel itself.
func (cfg Config) Normalized() Config {
	if cfg.BytesPerCycle <= 0 {
		cfg.BytesPerCycle = 8
	}
	if cfg.LatencyCycles <= 0 {
		cfg.LatencyCycles = 400
	}
	if cfg.RowBytes > 0 && cfg.RowMissPenalty <= 0 {
		cfg.RowMissPenalty = 100
	}
	return cfg
}

// New builds a channel with the given configuration.
func New(cfg Config) *DRAM {
	d := new(DRAM)
	d.Reset(cfg)
	return d
}

// Reset returns the channel to the idle state New builds, under cfg.
func (d *DRAM) Reset(cfg Config) {
	*d = DRAM{cfg: cfg.Normalized()}
}

// CopyFrom copies src's bus clock, open-row tracker and traffic tallies
// into d. d keeps its own configuration, so a fork built with a
// divergent Config resumes src's bus and row state under its own timing.
func (d *DRAM) CopyFrom(src *DRAM) {
	cfg := d.cfg
	*d = *src
	d.cfg = cfg
}

// SetConfig replaces the channel configuration mid-run (the param
// switch a fork's divergent Config is equivalent to), normalizing zero
// fields the same way New does. Bus and row state carry over.
func (d *DRAM) SetConfig(cfg Config) {
	d.cfg = cfg.Normalized()
}

// latencyFor returns the access latency, applying the open-row model when
// configured: the flat LatencyCycles is interpreted as the row-miss
// latency, and row hits save RowMissPenalty cycles.
func (d *DRAM) latencyFor(addr uint32) int64 {
	if d.cfg.RowBytes == 0 {
		return d.cfg.LatencyCycles
	}
	row := addr / d.cfg.RowBytes
	if d.hasRow && row == d.openRow {
		d.rowHits++
		return d.cfg.LatencyCycles - d.cfg.RowMissPenalty
	}
	d.rowMisses++
	d.openRow = row
	d.hasRow = true
	return d.cfg.LatencyCycles
}

// RowStats returns open-row hits and misses (zero unless RowBytes is set).
func (d *DRAM) RowStats() (hits, misses int64) { return d.rowHits, d.rowMisses }

// transferCycles returns the bus occupancy of a transfer, at least one cycle.
func (d *DRAM) transferCycles(bytes int) int64 {
	t := int64((bytes + d.cfg.BytesPerCycle - 1) / d.cfg.BytesPerCycle)
	if t < 1 {
		t = 1
	}
	return t
}

// Read schedules a read of the given size issued at cycle now and returns
// the cycle at which the data is available to the SM. addr is accepted for
// interface compatibility with channel-interleaved systems; a single
// channel ignores it.
func (d *DRAM) Read(now int64, addr uint32, bytes int) int64 {
	start := now
	if d.busFreeAt > start {
		d.stallCycle += d.busFreeAt - start
		start = d.busFreeAt
	}
	lat := d.latencyFor(addr)
	d.busFreeAt = start + d.transferCycles(bytes)
	d.reads++
	return d.busFreeAt + lat
}

// Write schedules a write of the given size issued at cycle now. Writes are
// posted: the SM does not wait for them, but they consume bus bandwidth and
// delay subsequent accesses.
func (d *DRAM) Write(now int64, addr uint32, bytes int) {
	if d.cfg.RowBytes > 0 {
		d.latencyFor(addr) // writes move the open row too
	}
	start := now
	if d.busFreeAt > start {
		start = d.busFreeAt
	}
	d.busFreeAt = start + d.transferCycles(bytes)
	d.writes++
}

// Accesses returns the number of read and write transactions issued.
func (d *DRAM) Accesses() (reads, writes int64) { return d.reads, d.writes }

// QueueingStall returns the cumulative cycles reads spent waiting for the
// bus, a congestion indicator used in tests.
func (d *DRAM) QueueingStall() int64 { return d.stallCycle }

// BusFreeAt returns the cycle at which the bus next becomes idle.
func (d *DRAM) BusFreeAt() int64 { return d.busFreeAt }

// String summarizes traffic.
func (d *DRAM) String() string {
	return fmt.Sprintf("dram reads=%d writes=%d stall=%d", d.reads, d.writes, d.stallCycle)
}
