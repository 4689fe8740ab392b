package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/sm"
)

// Describe is the inverse of Resolve: it renders resolved simulator
// parameters back into the JSON schema with every field filled in. Two
// descriptions that Resolve to the same simulator state Describe to the
// same value, which is what makes Canonical and Key well defined.
//
// Describe covers every field of sm.Params, so resolved parameters that
// differ in any field describe differently.
func Describe(cfg config.MemConfig, p sm.Params, e energy.Params) Description {
	var d Description
	d.Design = cfg.Design.String()
	d.RFKB = cfg.RFBytes >> 10
	d.SharedKB = cfg.SharedBytes >> 10
	d.CacheKB = cfg.CacheBytes >> 10
	d.MaxThreads = cfg.MaxThreads
	d.Timing.ALULatency = p.ALULatency
	d.Timing.SFULatency = p.SFULatency
	d.Timing.SharedLatency = p.SharedLatency
	d.Timing.CacheLatency = p.CacheLatency
	d.Timing.TexLatency = p.TexLatency
	d.Timing.DRAMLatency = p.DRAM.LatencyCycles
	d.Timing.DRAMBytesPerCycle = p.DRAM.BytesPerCycle
	d.Timing.DRAMRowBytes = int(p.DRAM.RowBytes)
	d.Timing.DRAMRowMissCycles = p.DRAM.RowMissPenalty
	d.Timing.ActiveWarps = p.ActiveWarps
	d.Timing.DeschedulePast = p.DeschedulePast
	d.Timing.MaxMSHRs = p.MaxMSHRs
	d.Timing.Scheduler = string(p.Scheduler)
	if d.Timing.Scheduler == "" {
		// The zero sched.Policy means twolevel; spell it out so the
		// rendered description never depends on the zero-value convention.
		d.Timing.Scheduler = "twolevel"
	}
	d.Timing.AggressiveScatter = p.AggressiveScatter
	d.Timing.WriteBackCache = p.WriteBackCache
	d.Energy.SMDynamicW = e.SMDynamicPower
	d.Energy.SMCoreLeakageW = e.SMCoreLeakage
	d.Energy.SRAMLeakageMWKB = unscale(e.SRAMLeakagePerKB, 1e3, 1e-3)
	d.Energy.DRAMPJPerBit = unscale(e.DRAMEnergyPerBit, 1e12, 1e-12)
	d.Energy.UnifiedWiringMul = e.UnifiedWiringOverhead
	return d
}

// unscale renders p, which Resolve computes as v*toParam, in description
// units: p*toDesc when Resolve maps that back to p exactly, else the
// nearest value within a few ulps that it does. The two roundings would
// otherwise move p by an ulp per round trip, and two descriptions of one
// machine would get different keys.
func unscale(p, toDesc, toParam float64) float64 {
	v := p * toDesc
	down, up := v, v
	for i := 0; i < 4; i++ {
		if down*toParam == p {
			return down
		}
		if up*toParam == p {
			return up
		}
		down, up = math.Nextafter(down, math.Inf(-1)), math.Nextafter(up, math.Inf(1))
	}
	return v
}

// Canonical resolves the description and renders it back fully filled:
// zero-valued fields take the paper's defaults, design and scheduler
// aliases collapse to their canonical spelling ("fermi" to "fermi-like",
// "" to "twolevel"), and capacities round-trip through the simulator's
// byte values. Descriptions that configure identical simulations are
// equal after Canonical; ones that differ in any simulated parameter are
// not.
func (d Description) Canonical() (Description, error) {
	cfg, p, e, err := d.Resolve()
	if err != nil {
		return Description{}, err
	}
	return Describe(cfg, p, e), nil
}

// CanonicalJSON returns the deterministic byte serialization of the
// canonical form: encoding/json emits struct fields in declaration
// order, so equal canonical descriptions produce equal bytes.
func CanonicalJSON(d Description) ([]byte, error) {
	c, err := d.Canonical()
	if err != nil {
		return nil, err
	}
	return json.Marshal(c)
}

// Key returns the canonical content hash of a machine description — the
// machine half of the simulation service's result-cache key. Requests
// that spell the same machine differently (field order, omitted
// defaults, design aliases) share a key; any change to a simulated
// parameter yields a different one.
func Key(d Description) (string, error) {
	b, err := CanonicalJSON(d)
	if err != nil {
		return "", fmt.Errorf("machine: canonical key: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
