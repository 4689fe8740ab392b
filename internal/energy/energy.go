// Package energy implements the paper's Section 5.2 energy model.
//
// Energy is computed from the event counters of a simulation run and the
// configuration's structure sizes:
//
//   - Bank access energy uses the Table 4 CACTI/synthesis-derived points
//     (2 KB: 3.9/5.1 pJ, 8 KB: 9.8/11.8 pJ, 12 KB: 12.1/14.9 pJ per
//     16-byte access) with piecewise power-law interpolation between them,
//     so the paper's sizes reproduce exactly.
//   - Unified shared-memory and cache accesses pay a 10% wiring/muxing
//     overhead (the 4:1 cluster mux and longer crossbar of Section 5.2).
//   - SM dynamic power other than bank accesses is held constant across
//     configurations (the paper's assumption: "we assume that dynamic
//     power for the SM is constant"), calibrated from the baseline
//     256/64/64 run of each benchmark at 1.9 W total dynamic SM power.
//     Faster configurations therefore spend less non-bank dynamic energy,
//     which is where most of the paper's energy savings come from.
//   - Leakage is 0.7 W per SM core plus 2.37 mW per KB of SRAM, scaled by
//     runtime, so faster configurations leak less.
//   - DRAM transfers cost 40 pJ/bit.
package energy

import (
	"math"

	"repro/internal/config"
	"repro/internal/stats"
)

// Params holds the Table 3/4 energy constants. All energies are in
// picojoules, powers in watts, and the clock in hertz.
type Params struct {
	// Frequency converts cycles to seconds (1 GHz).
	Frequency float64
	// SMDynamicPower is the calibrated dynamic power of one SM running
	// the baseline configuration (1.9 W).
	SMDynamicPower float64
	// SMCoreLeakage is the capacity-independent SM leakage (0.7 W).
	SMCoreLeakage float64
	// SRAMLeakagePerKB is SRAM leakage per KB of local storage
	// (2.37 mW/KB, the paper's adjustment constant).
	SRAMLeakagePerKB float64
	// DRAMEnergyPerBit is DRAM access energy (40 pJ/bit).
	DRAMEnergyPerBit float64
	// UnifiedWiringOverhead is the multiplicative penalty on unified
	// shared/cache bank accesses (1.10).
	UnifiedWiringOverhead float64
	// ORFAccessPJ and LRFAccessPJ are per-warp-operand (128-byte)
	// energies of the small per-thread structures, estimated from the
	// register-hierarchy paper [Gebhart MICRO 2011].
	ORFAccessPJ float64
	LRFAccessPJ float64
	// TagProbePJ is the cache tag lookup energy per probe.
	TagProbePJ float64
}

// DefaultParams returns the paper's constants.
func DefaultParams() Params {
	return Params{
		Frequency:             1e9,
		SMDynamicPower:        1.9,
		SMCoreLeakage:         0.7,
		SRAMLeakagePerKB:      2.37e-3,
		DRAMEnergyPerBit:      40e-12,
		UnifiedWiringOverhead: 1.10,
		ORFAccessPJ:           15,
		LRFAccessPJ:           4,
		TagProbePJ:            1,
	}
}

// bankPoint is one Table 4 calibration point.
type bankPoint struct {
	bytes       float64
	read, write float64 // pJ per 16-byte access
}

// table4 holds the published SRAM bank energies.
var table4 = []bankPoint{
	{2 << 10, 3.9, 5.1},
	{8 << 10, 9.8, 11.8},
	{12 << 10, 12.1, 14.9},
}

// BankEnergy returns the read and write energy in pJ of one 16-byte access
// to an SRAM bank of the given capacity, interpolating Table 4 with a
// piecewise power law (exact at the published sizes).
func BankEnergy(bankBytes int) (readPJ, writePJ float64) {
	b := float64(bankBytes)
	if b <= 0 {
		return 0, 0
	}
	interp := func(x0, y0, x1, y1, x float64) float64 {
		p := math.Log(y1/y0) / math.Log(x1/x0)
		return y0 * math.Pow(x/x0, p)
	}
	lo, hi := table4[0], table4[len(table4)-1]
	switch {
	case b <= lo.bytes:
		next := table4[1]
		return interp(lo.bytes, lo.read, next.bytes, next.read, b),
			interp(lo.bytes, lo.write, next.bytes, next.write, b)
	case b >= hi.bytes:
		prev := table4[len(table4)-2]
		return interp(prev.bytes, prev.read, hi.bytes, hi.read, b),
			interp(prev.bytes, prev.write, hi.bytes, hi.write, b)
	default:
		for i := 0; i+1 < len(table4); i++ {
			a, c := table4[i], table4[i+1]
			if b >= a.bytes && b <= c.bytes {
				return interp(a.bytes, a.read, c.bytes, c.read, b),
					interp(a.bytes, a.write, c.bytes, c.write, b)
			}
		}
	}
	return 0, 0 // unreachable
}

// Breakdown is the per-run energy report in joules.
type Breakdown struct {
	MRF    float64 // main register file bank accesses
	ORF    float64 // operand register file accesses
	LRF    float64 // last result file accesses
	Shared float64 // shared memory bank accesses
	Cache  float64 // cache data bank accesses
	Tags   float64 // cache tag probes
	Other  float64 // remaining (constant) SM dynamic energy
	Leak   float64 // SM core + SRAM leakage over the runtime
	DRAM   float64 // off-chip access energy
}

// AccessTotal returns the local-memory access portion (everything the
// unified design changes).
func (b Breakdown) AccessTotal() float64 {
	return b.MRF + b.ORF + b.LRF + b.Shared + b.Cache + b.Tags
}

// Total returns total energy in joules.
func (b Breakdown) Total() float64 {
	return b.AccessTotal() + b.Other + b.Leak + b.DRAM
}

// Model evaluates runs under one set of parameters.
type Model struct {
	P Params
}

// NewModel returns a model with the default parameters.
func NewModel() Model { return Model{P: DefaultParams()} }

const pJ = 1e-12

// clusterBanksPerWarpOperand is how many MRF banks one warp-wide operand
// access touches: one 16-byte bank in each of the 8 clusters.
const clusterBanksPerWarpOperand = config.NumClusters

// accessEnergy computes the local-memory access energy of a run.
func (m Model) accessEnergy(cfg config.MemConfig, c *stats.Counters) Breakdown {
	rfBank, shBank, chBank := cfg.BankBytes()
	rfR, rfW := BankEnergy(rfBank)
	shR, shW := BankEnergy(shBank)
	chR, chW := BankEnergy(chBank)

	memOverhead := 1.0
	if cfg.Design == config.Unified {
		memOverhead = m.P.UnifiedWiringOverhead
	}

	var b Breakdown
	b.MRF = pJ * clusterBanksPerWarpOperand * readWrite(c.MRFReads, rfR, c.MRFWrites, rfW)
	b.ORF = pJ * m.P.ORFAccessPJ * float64(c.ORFReads+c.ORFWrites)
	b.LRF = pJ * m.P.LRFAccessPJ * float64(c.LRFReads+c.LRFWrites)

	// Shared-memory counters are bank touches. A partitioned touch moves
	// 4 bytes from a 4-byte-wide bank (a quarter of the Table 4 16-byte
	// access); a unified touch moves 16 bytes and pays the wiring adder.
	shFrac := 0.25
	if cfg.Design == config.Unified {
		shFrac = 1.0
	}
	b.Shared = pJ * memOverhead * shFrac * readWrite(c.SharedReads, shR, c.SharedWrites, shW)

	// Cache data counters are line accesses (128 bytes = eight 16-byte
	// bank accesses in either design's aggregate width).
	const banksPerLine = config.CacheLineBytes / 16
	b.Cache = pJ * memOverhead * banksPerLine * readWrite(c.CacheDataReads, chR, c.CacheDataWrites, chW)
	b.Tags = pJ * memOverhead * m.P.TagProbePJ * float64(c.CacheProbes)
	return b
}

// readWrite returns reads*readPJ + writes*writePJ with each product
// rounded before the sum. The explicit conversions forbid the compiler
// to fuse a product into the addition (the Go spec lets it on targets
// with fused multiply-add, such as arm64), so energies are bit-identical
// on every architecture.
func readWrite(reads int64, readPJ float64, writes int64, writePJ float64) float64 {
	return float64(float64(reads)*readPJ) + float64(float64(writes)*writePJ)
}

// seconds converts a run's cycle count to seconds.
func (m Model) seconds(c *stats.Counters) float64 {
	return float64(c.Cycles) / m.P.Frequency
}

// CalibrateOther returns the constant non-bank SM dynamic POWER (watts)
// of a benchmark, from its baseline-configuration run: 1.9 W minus the
// baseline bank-access power (floored at zero). Per the paper's Section
// 5.2, this power is held constant across configurations, so a faster
// configuration spends proportionally less non-bank dynamic energy.
func (m Model) CalibrateOther(baselineCfg config.MemConfig, baseline *stats.Counters) float64 {
	t := m.seconds(baseline)
	if t == 0 {
		return 0
	}
	other := m.P.SMDynamicPower - m.accessEnergy(baselineCfg, baseline).AccessTotal()/t
	if other < 0 {
		other = 0
	}
	return other
}

// Evaluate produces the full energy breakdown of a run. otherDynamic is
// the CalibrateOther power (watts) from the benchmark's baseline run
// (pass a negative value to calibrate on this run itself).
func (m Model) Evaluate(cfg config.MemConfig, c *stats.Counters, otherDynamic float64) Breakdown {
	b := m.accessEnergy(cfg, c)
	if otherDynamic < 0 {
		otherDynamic = m.CalibrateOther(cfg, c)
	}
	t := m.seconds(c)
	b.Other = otherDynamic * t
	// The conversion keeps the SRAM term unfused, as in readWrite.
	leakW := m.P.SMCoreLeakage + float64(m.P.SRAMLeakagePerKB*float64(cfg.TotalBytes())/1024)
	b.Leak = leakW * t
	b.DRAM = m.P.DRAMEnergyPerBit * 8 * float64(c.DRAMBytes())
	return b
}
