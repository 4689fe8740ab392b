// Package plan decides what gets simulated for an api.RunRequest, and
// under which key. It is the one implementation every front end shares:
// smserve's endpoints and job engine, campaign.Execute (cmd/compare and
// the harness comparison experiments), cmd/sweep and cmd/smsim all turn
// requests into core runs here, so a request means the same simulation —
// the same configuration, the same calibrating parameters, the same
// cache key — whichever way it arrives. That is what makes local and
// job-API output byte-identical.
//
// The package has five parts:
//
//   - Resolve canonicalizes one request: kernel lookup, the clamps the
//     simulator applies, the machine description, the §4.5 allocation or
//     Fermi-like override, and the canonical cache key.
//   - ResolveBatch resolves a batch and wires warm-prefix groups for
//     warm_cycles.
//   - ExpandSweep turns a sweep into the equivalent batch.
//   - Runners memoizes one core.Runner per (timing, energy) parameter
//     set, keyed by RunnerKey, and simulates resolved runs on them.
//   - Flags maps the command-line flags smsim and smprof share to a
//     request.
package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/api"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/machine"
	"repro/internal/occupancy"
	"repro/internal/probe"
	"repro/internal/sm"
	"repro/internal/workloads"
)

// Run is an api.RunRequest after canonicalization: the concrete kernels,
// configuration, and parameters, plus the cache key they hash to and the
// runner key the (timing, energy) half hashes to.
type Run struct {
	// Streams holds the resolved co-resident kernels. A plain request is
	// a one-entry list, so it and a single-entry streams list resolve
	// identically.
	Streams       []Stream
	Config        config.MemConfig
	Params        sm.Params
	Energy        energy.Params
	Probe         bool
	ProbeInterval int64
	// Timeout is the request's timeout_ms; 0 leaves the caller's default.
	Timeout time.Duration
	Key     string
	// WarmCycles is non-zero when the run forks a batch's shared warm
	// prefix at that cycle (see ResolveBatch).
	WarmCycles int64
	warm       *warmGroup

	canon     machine.Description // machine.Describe of the resolved run
	runnerKey string
}

// Stream is one canonicalized stream of a request.
type Stream struct {
	Kernel *workloads.Kernel
	Regs   int
	Seed   uint64
}

// canonicalRun is the hashed form of a resolved run. Field order is the
// serialization order, so changing this struct changes every key. A
// single-stream run fills the plain kernel fields; a run of two or more
// streams fills Streams instead, which trails with omitempty so every
// single-kernel request keeps its exact key.
type canonicalRun struct {
	Kernel   string              `json:"kernel"`
	BF       int                 `json:"bf"`
	Machine  machine.Description `json:"machine"`
	Regs     int                 `json:"regs"`
	Seed     uint64              `json:"seed"`
	Probe    bool                `json:"probe"`
	ProbeIvl int64               `json:"probe_interval,omitempty"`
	Streams  []canonicalStream   `json:"streams,omitempty"`
}

// canonicalStream is the hashed form of one resolved stream: the
// concrete kernel and the clamps the simulator applies, so stream
// spellings of the same run share a key.
type canonicalStream struct {
	Kernel string `json:"kernel"`
	BF     int    `json:"bf"`
	Regs   int    `json:"regs"`
	Seed   uint64 `json:"seed"`
}

// Label names the run for notes and error messages: the kernel name, or
// the "+"-joined stream names of a multi-tenant run.
func (r *Run) Label() string {
	names := make([]string, len(r.Streams))
	for i, st := range r.Streams {
		names[i] = st.Kernel.Name
	}
	return strings.Join(names, "+")
}

// Spec returns the core run specification.
func (r *Run) Spec() core.RunSpec {
	streams := make([]core.StreamSpec, len(r.Streams))
	for i, st := range r.Streams {
		streams[i] = core.StreamSpec{Kernel: st.Kernel, RegsPerThread: st.Regs, Seed: st.Seed}
	}
	return core.RunSpec{Config: r.Config, Streams: streams}
}

// ConfigInfo is the API view of the run's resolved configuration.
func (r *Run) ConfigInfo() api.ConfigInfo {
	return api.ConfigInfo{
		Design:      r.Config.Design.String(),
		RFBytes:     r.Config.RFBytes,
		SharedBytes: r.Config.SharedBytes,
		CacheBytes:  r.Config.CacheBytes,
		MaxThreads:  r.Config.MaxThreads,
	}
}

// Resolve canonicalizes one request; every error is a client error. A
// plain request is a one-entry stream list: each stream's kernel,
// register clamp, and seed resolve the same way, and
// alloc_total_kb/fermi_total_kb partition jointly for the whole list
// (config.AllocateMulti / occupancy.ChooseFermiMulti).
func Resolve(req api.RunRequest) (*Run, error) {
	streamReqs := req.Streams
	where := func(i int) string { return fmt.Sprintf("streams[%d]: ", i) }
	if len(streamReqs) > 0 {
		if req.Kernel != "" || req.BF != 0 || req.RegsPerThread != 0 || req.Seed != 0 {
			return nil, fmt.Errorf("\"streams\" is mutually exclusive with kernel/bf/regs_per_thread/seed")
		}
	} else {
		streamReqs = []api.StreamRequest{{Kernel: req.Kernel, BF: req.BF, RegsPerThread: req.RegsPerThread, Seed: req.Seed}}
		where = func(int) string { return "" }
	}
	streams := make([]Stream, len(streamReqs))
	reqs := make([]config.KernelRequirements, len(streamReqs))
	for i, sr := range streamReqs {
		if sr.Kernel == "" {
			return nil, fmt.Errorf("%smissing \"kernel\" (GET /v1/kernels lists the registry)", where(i))
		}
		k, err := Kernel(sr.Kernel, sr.BF)
		if err != nil {
			return nil, fmt.Errorf("%s%w", where(i), err)
		}
		// Canonicalize exactly the clamps the simulator applies, so
		// requests that spell the same run differently share a key.
		st := Stream{Kernel: k, Regs: sr.RegsPerThread, Seed: sr.Seed}
		if st.Regs <= 0 || st.Regs > k.RegsNeeded {
			st.Regs = k.RegsNeeded
		}
		if st.Seed == 0 {
			st.Seed = 1 // core.Runner's default seed
		}
		streams[i] = st
		reqs[i] = k.Requirements()
	}
	cfg, params, eparams, err := req.Machine.Resolve()
	if err != nil {
		return nil, err
	}
	if req.AllocTotalKB > 0 && req.FermiTotalKB > 0 {
		return nil, fmt.Errorf("at most one of alloc_total_kb and fermi_total_kb")
	}
	if req.AllocTotalKB > 0 {
		cfg, err = config.AllocateMulti(reqs, req.AllocTotalKB<<10, req.Machine.MaxThreads)
		if err != nil {
			return nil, err
		}
	}
	if req.FermiTotalKB > 0 {
		if req.FermiTotalKB<<10 <= config.BaselineRFBytes {
			return nil, fmt.Errorf("fermi_total_kb must exceed the fixed %dKB register file",
				config.BaselineRFBytes>>10)
		}
		cfg = occupancy.ChooseFermiMulti(reqs, req.FermiTotalKB<<10-config.BaselineRFBytes, req.Machine.MaxThreads)
	}
	r := &Run{
		Streams: streams,
		Config:  cfg,
		Params:  params,
		Energy:  eparams,
		canon:   machine.Describe(cfg, params, eparams),
	}
	if req.TimeoutMS > 0 {
		r.Timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if req.Probe {
		r.Probe = true
		r.ProbeInterval = req.ProbeIntervalCycles
		if r.ProbeInterval <= 0 {
			r.ProbeInterval = probe.DefaultInterval
		}
	}
	canon := canonicalRun{Machine: r.canon, Probe: r.Probe, ProbeIvl: r.ProbeInterval}
	if len(streams) == 1 {
		st := streams[0]
		canon.Kernel, canon.BF, canon.Regs, canon.Seed = st.Kernel.Name, st.Kernel.BF, st.Regs, st.Seed
	} else {
		for _, st := range streams {
			canon.Streams = append(canon.Streams, canonicalStream{Kernel: st.Kernel.Name, BF: st.Kernel.BF, Regs: st.Regs, Seed: st.Seed})
		}
	}
	ck, err := json.Marshal(canon)
	if err != nil {
		return nil, err
	}
	r.Key = Key(ck)
	r.runnerKey = runnerKey(r.canon)
	return r, nil
}

// RunnerKey is the canonical form of a (timing, energy) parameter set:
// the machine description with its configuration half zeroed, so runs
// under different capacities share one Runner and its baseline
// calibrations. Spellings of the same parameters share a key (the zero
// scheduler policy and "twolevel", for example).
func RunnerKey(p sm.Params, e energy.Params) string {
	return runnerKey(machine.Describe(config.MemConfig{}, p, e))
}

// runnerKey renders a machine description with its configuration half
// zeroed: the RunnerKey of its timing and energy parameters.
func runnerKey(d machine.Description) string {
	d.Design, d.RFKB, d.SharedKB, d.CacheKB, d.MaxThreads = "", 0, 0, 0, 0
	b, _ := json.Marshal(d) // a Description always marshals
	return string(b)
}

// RunnerKey is the canonical form of the run's timing and energy
// parameters (the package-level RunnerKey of them).
func (r *Run) RunnerKey() string { return r.runnerKey }

// Kernel looks up a registry kernel; a needle request with a blocking
// factor builds that variant.
func Kernel(name string, bf int) (*workloads.Kernel, error) {
	if name == "needle" && bf != 0 {
		return workloads.NeedleKernel(bf), nil
	}
	return workloads.ByName(name)
}

// Key hashes canonical request bytes into the result key shared by the
// service's LRU and the persistent store.
func Key(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}
