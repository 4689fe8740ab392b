package plan

import (
	"fmt"

	"repro/api"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/occupancy"
)

// sweepCapacityAxes and sweepParamAxes are the legal SweepRequest
// resources. Parameter axes are divergable across a snapshot and may
// share a warm prefix; capacity axes define the warm-up history and may
// not.
var (
	sweepCapacityAxes = map[string]bool{"rf": true, "shared": true, "cache": true}
	sweepParamAxes    = map[string]bool{"mshr": true, "dramlat": true, "drambw": true}
)

// IsParamAxis reports whether resource is a timing-parameter sweep axis
// (mshr | dramlat | drambw) rather than a capacity axis.
func IsParamAxis(resource string) bool { return sweepParamAxes[resource] }

// ExpandSweep turns a SweepRequest into the equivalent BatchRequest —
// one run per point, the swept field overwritten on the base machine —
// plus a human-readable note. Every error is a client error.
func ExpandSweep(req api.SweepRequest) (api.BatchRequest, string, error) {
	if req.Kernel == "" {
		return api.BatchRequest{}, "", fmt.Errorf("sweep: missing \"kernel\"")
	}
	k, err := Kernel(req.Kernel, req.BF)
	if err != nil {
		return api.BatchRequest{}, "", fmt.Errorf("sweep: %w", err)
	}
	isParam := sweepParamAxes[req.Resource]
	if !isParam && !sweepCapacityAxes[req.Resource] {
		return api.BatchRequest{}, "", fmt.Errorf(
			"sweep: unknown resource %q (want rf | shared | cache | mshr | dramlat | drambw)", req.Resource)
	}
	if req.WarmCycles != 0 && !isParam {
		return api.BatchRequest{}, "", fmt.Errorf(
			"sweep: warm_cycles needs a parameter resource (mshr | dramlat | drambw); capacities define the warm-up history and cannot be forked")
	}
	values, err := req.Values()
	if err != nil {
		return api.BatchRequest{}, "", fmt.Errorf("sweep: %w", err)
	}
	base := req.Machine
	if base.RFKB == 0 && base.SharedKB == 0 && base.CacheKB == 0 {
		// An entirely unspecified split takes the sweep baseline —
		// full-occupancy RF, unbounded shared, baseline cache — so only
		// the swept axis constrains the kernel.
		base.RFKB = kbCeil(occupancy.FullOccupancyRFBytes(k.RegsNeeded))
		base.SharedKB = kbCeil(core.UnboundedShared(k))
		base.CacheKB = config.BaselineCacheBytes >> 10
	}
	runs := make([]api.RunRequest, len(values))
	for i, v := range values {
		d := base
		switch req.Resource {
		case "rf":
			d.RFKB = v
		case "shared":
			d.SharedKB = v
		case "cache":
			d.CacheKB = v
		case "mshr":
			d.Timing.MaxMSHRs = v
		case "dramlat":
			d.Timing.DRAMLatency = int64(v)
		case "drambw":
			d.Timing.DRAMBytesPerCycle = v
		}
		runs[i] = api.RunRequest{
			Kernel:        req.Kernel,
			BF:            req.BF,
			Machine:       d,
			RegsPerThread: req.RegsPerThread,
			Seed:          req.Seed,
			TimeoutMS:     req.TimeoutMS,
		}
	}
	note := fmt.Sprintf("sweep %s %s %d..%d step %s (%d points)",
		k.Name, req.Resource, req.From, req.To, req.Step, len(values))
	return api.BatchRequest{Runs: runs, WarmCycles: req.WarmCycles}, note, nil
}

// kbCeil converts bytes to whole KB, rounding up.
func kbCeil(b int) int { return (b + 1023) >> 10 }
