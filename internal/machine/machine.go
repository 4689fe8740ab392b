// Package machine loads and saves complete machine descriptions — the
// local-memory configuration, SM timing parameters, and energy constants —
// as JSON files, so the cmd tools can evaluate machines other than the
// paper's Table 2/3 design point without recompiling.
package machine

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/sched"
	"repro/internal/sm"
)

// Description is the JSON schema. Zero-valued fields take the paper's
// defaults on Load, so partial files work.
type Description struct {
	// Design is "partitioned", "unified", or "fermi-like".
	Design string `json:"design"`
	// Capacities in KB.
	RFKB     int `json:"rf_kb"`
	SharedKB int `json:"shared_kb"`
	CacheKB  int `json:"cache_kb"`
	// MaxThreads caps resident threads (0 = architectural limit).
	MaxThreads int `json:"max_threads,omitempty"`

	Timing struct {
		ALULatency        int64 `json:"alu_latency,omitempty"`
		SFULatency        int64 `json:"sfu_latency,omitempty"`
		SharedLatency     int64 `json:"shared_latency,omitempty"`
		CacheLatency      int64 `json:"cache_latency,omitempty"`
		TexLatency        int64 `json:"tex_latency,omitempty"`
		DRAMLatency       int64 `json:"dram_latency,omitempty"`
		DRAMBytesPerCycle int   `json:"dram_bytes_per_cycle,omitempty"`
		DRAMRowBytes      int   `json:"dram_row_bytes,omitempty"`
		DRAMRowMissCycles int64 `json:"dram_row_miss_cycles,omitempty"`
		ActiveWarps       int   `json:"active_warps,omitempty"`
		DeschedulePast    int64 `json:"deschedule_past,omitempty"`
		// MaxMSHRs bounds outstanding cache misses (0 = unbounded, the
		// paper's model).
		MaxMSHRs int `json:"max_mshrs,omitempty"`
		// Scheduler is the warp-scheduling policy: "twolevel" (default)
		// or "gto".
		Scheduler         string `json:"scheduler,omitempty"`
		AggressiveScatter bool   `json:"aggressive_scatter,omitempty"`
		WriteBackCache    bool   `json:"write_back_cache,omitempty"`
	} `json:"timing"`

	Energy struct {
		SMDynamicW       float64 `json:"sm_dynamic_w,omitempty"`
		SMCoreLeakageW   float64 `json:"sm_core_leakage_w,omitempty"`
		SRAMLeakageMWKB  float64 `json:"sram_leakage_mw_per_kb,omitempty"`
		DRAMPJPerBit     float64 `json:"dram_pj_per_bit,omitempty"`
		UnifiedWiringMul float64 `json:"unified_wiring_multiplier,omitempty"`
	} `json:"energy"`
}

// Default returns the paper's machine.
func Default() Description {
	var d Description
	d.Design = "partitioned"
	d.RFKB = config.BaselineRFBytes >> 10
	d.SharedKB = config.BaselineSharedBytes >> 10
	d.CacheKB = config.BaselineCacheBytes >> 10
	p := sm.DefaultParams()
	d.Timing.ALULatency = p.ALULatency
	d.Timing.SFULatency = p.SFULatency
	d.Timing.SharedLatency = p.SharedLatency
	d.Timing.CacheLatency = p.CacheLatency
	d.Timing.TexLatency = p.TexLatency
	d.Timing.DRAMLatency = p.DRAM.LatencyCycles
	d.Timing.DRAMBytesPerCycle = p.DRAM.BytesPerCycle
	d.Timing.ActiveWarps = p.ActiveWarps
	d.Timing.DeschedulePast = p.DeschedulePast
	e := energy.DefaultParams()
	d.Energy.SMDynamicW = e.SMDynamicPower
	d.Energy.SMCoreLeakageW = e.SMCoreLeakage
	d.Energy.SRAMLeakageMWKB = e.SRAMLeakagePerKB * 1e3
	d.Energy.DRAMPJPerBit = e.DRAMEnergyPerBit * 1e12
	d.Energy.UnifiedWiringMul = e.UnifiedWiringOverhead
	return d
}

// Resolve converts the description into the simulator's parameter types,
// filling unset fields with the paper's defaults.
func (d Description) Resolve() (config.MemConfig, sm.Params, energy.Params, error) {
	var cfg config.MemConfig
	switch d.Design {
	case "", "partitioned":
		cfg.Design = config.Partitioned
	case "unified":
		cfg.Design = config.Unified
	case "fermi-like", "fermi":
		cfg.Design = config.FermiLike
	default:
		return cfg, sm.Params{}, energy.Params{}, fmt.Errorf("machine: unknown design %q", d.Design)
	}
	if d.RFKB == 0 && d.SharedKB == 0 && d.CacheKB == 0 {
		// An entirely unspecified capacity split takes the paper's
		// baseline, like every other zero-valued field; partially
		// specified splits stay literal (a deliberate zero capacity is
		// meaningful, e.g. cache-less sweeps).
		d.RFKB = config.BaselineRFBytes >> 10
		d.SharedKB = config.BaselineSharedBytes >> 10
		d.CacheKB = config.BaselineCacheBytes >> 10
	}
	for _, kb := range []int{d.RFKB, d.SharedKB, d.CacheKB} {
		if kb<<10>>10 != kb {
			return cfg, sm.Params{}, energy.Params{}, fmt.Errorf("machine: capacity %d KB overflows", kb)
		}
	}
	cfg.RFBytes = d.RFKB << 10
	cfg.SharedBytes = d.SharedKB << 10
	cfg.CacheBytes = d.CacheKB << 10
	cfg.MaxThreads = d.MaxThreads
	if err := cfg.Validate(); err != nil {
		return cfg, sm.Params{}, energy.Params{}, err
	}

	p := sm.DefaultParams()
	setI64 := func(dst *int64, v int64) {
		if v != 0 {
			*dst = v
		}
	}
	setI64(&p.ALULatency, d.Timing.ALULatency)
	setI64(&p.SFULatency, d.Timing.SFULatency)
	setI64(&p.SharedLatency, d.Timing.SharedLatency)
	setI64(&p.CacheLatency, d.Timing.CacheLatency)
	setI64(&p.TexLatency, d.Timing.TexLatency)
	setI64(&p.DRAM.LatencyCycles, d.Timing.DRAMLatency)
	if d.Timing.DRAMBytesPerCycle != 0 {
		p.DRAM.BytesPerCycle = d.Timing.DRAMBytesPerCycle
	}
	if d.Timing.DRAMRowBytes > 0 {
		if uint64(d.Timing.DRAMRowBytes) > math.MaxUint32 {
			return cfg, sm.Params{}, energy.Params{}, fmt.Errorf("machine: dram_row_bytes %d exceeds 4 GiB", d.Timing.DRAMRowBytes)
		}
		p.DRAM.RowBytes = uint32(d.Timing.DRAMRowBytes)
		p.DRAM.RowMissPenalty = d.Timing.DRAMRowMissCycles
	}
	if d.Timing.ActiveWarps != 0 {
		p.ActiveWarps = d.Timing.ActiveWarps
	}
	setI64(&p.DeschedulePast, d.Timing.DeschedulePast)
	if d.Timing.MaxMSHRs > 0 {
		p.MaxMSHRs = d.Timing.MaxMSHRs
	}
	pol, err := sched.ParsePolicy(d.Timing.Scheduler)
	if err != nil {
		return cfg, sm.Params{}, energy.Params{}, fmt.Errorf("machine: %w", err)
	}
	p.Scheduler = pol
	p.AggressiveScatter = d.Timing.AggressiveScatter
	p.WriteBackCache = d.Timing.WriteBackCache

	e := energy.DefaultParams()
	setF := func(dst *float64, v float64) {
		if v != 0 {
			*dst = v
		}
	}
	setF(&e.SMDynamicPower, d.Energy.SMDynamicW)
	setF(&e.SMCoreLeakage, d.Energy.SMCoreLeakageW)
	setF(&e.SRAMLeakagePerKB, d.Energy.SRAMLeakageMWKB*1e-3)
	setF(&e.DRAMEnergyPerBit, d.Energy.DRAMPJPerBit*1e-12)
	setF(&e.UnifiedWiringOverhead, d.Energy.UnifiedWiringMul)
	return cfg, p, e, nil
}

// Read parses a machine file without resolving it.
func Read(path string) (Description, error) {
	var d Description
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("machine: %s: %w", path, err)
	}
	return d, nil
}

// Save writes a machine file (pretty-printed).
func Save(path string, d Description) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
