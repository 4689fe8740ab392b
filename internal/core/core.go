// Package core ties the substrates together: it runs a workload kernel
// under a local-memory configuration on the SM timing simulator, attaches
// occupancy and energy analyses, and hosts the paper's capacity-sweep,
// characterization and validation drivers (experiments.go,
// extensions.go). Comparisons of one machine against another (Figures 7,
// 9 and 10, Table 6, the ablations) run as internal/campaign campaigns
// on a Runner.
//
// This is the library's primary entry point:
//
//	r := core.NewRunner()
//	res, err := r.Run(core.RunSpec{Kernel: k, Config: config.Baseline()})
//	fmt.Println(res.Counters.Cycles, res.Energy.Total())
//
// Run accepts options; WithProbe attaches the internal/probe
// observability layer to a run:
//
//	p := probe.New(0, nil)
//	res, err := r.Run(spec, core.WithProbe(p))
//
// # Metrics: absolute versus ratio-only
//
// Absolute metrics are meaningful on their own for a single run:
// Result.IPC (thread instructions per cycle), Counters.Cycles,
// Counters.IPC (warp instructions per cycle), DRAM bytes, and every raw
// event count.
//
// Ratio-only metrics carry meaning only when divided by the same metric
// of another run: Result.Performance is reciprocal runtime, and the paper
// normalizes every performance figure to the kernel's run under the
// baseline partitioned configuration (Runner.Baseline).
//
// Runs that cannot achieve residency fail with a *FitError (and nil
// kernels with ErrKernelNil); use errors.As / errors.Is, or
// IsInfeasible for the common sweep-point check.
package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/occupancy"
	"repro/internal/probe"
	"repro/internal/sm"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// RunSpec describes one simulation run.
type RunSpec struct {
	// Kernel is the workload to execute.
	Kernel *workloads.Kernel
	// Config is the local-memory configuration.
	Config config.MemConfig
	// RegsPerThread overrides the per-thread register allocation; 0 uses
	// the kernel's spill-free demand. Smaller values trade spill code for
	// occupancy, as the Figure 2 sweeps do.
	RegsPerThread int
	// Seed perturbs per-warp random streams (divergent gathers).
	Seed uint64
	// Streams runs several kernels co-resident on one SM (multi-tenant
	// concurrent-kernel execution) with round-robin CTA-slot
	// interleaving and per-stream counter attribution. Mutually
	// exclusive with Kernel/RegsPerThread/Seed, which spell a one-entry
	// list; see streams.go.
	Streams []StreamSpec
}

// Result is the outcome of one run.
type Result struct {
	// Spec echoes the run parameters.
	Spec RunSpec
	// Occupancy is the CTA residency the configuration admitted.
	Occupancy occupancy.Result
	// Counters are the raw simulation event counts.
	Counters *stats.Counters
	// Energy is the Section 5.2 energy breakdown.
	Energy energy.Breakdown
	// Streams holds per-stream results for runs of two or more streams,
	// in stream order; nil for single-kernel runs, however spelled.
	Streams []StreamResult
}

// Performance returns the run's performance metric (reciprocal runtime;
// only ratios of this value are meaningful — see the package comment).
func (r *Result) Performance() float64 {
	if r.Counters.Cycles == 0 {
		return 0
	}
	return 1 / float64(r.Counters.Cycles)
}

// IPC returns thread instructions retired per cycle — an absolute
// throughput metric (peak is the SM's 32 lanes), unlike the ratio-only
// Performance. Counters.IPC is the warp-granular variant.
func (r *Result) IPC() float64 {
	return r.Counters.ThreadIPC()
}

// RunOption configures one Run call.
type RunOption func(*runOptions)

type runOptions struct {
	probe *probe.Probe
}

// WithProbe attaches a cycle-level observability probe to the run. The
// probe observes exactly one SM run; attach a fresh one per call when
// fanning runs out in parallel. Probes are passive: a probed run's
// Counters are identical to an unprobed one's.
func WithProbe(p *probe.Probe) RunOption {
	return func(o *runOptions) { o.probe = p }
}

// Runner executes runs and caches the per-benchmark baseline needed for
// energy calibration and for normalizing results the way the paper does.
//
// A Runner is safe for concurrent use: the experiment drivers fan their
// independent (kernel, config) runs out through internal/parallel, and the
// only shared mutable state — the baseline cache — is computed at most
// once per kernel and seed regardless of how many goroutines ask for
// it. Params, Energy, and Seed must not be modified once runs are in
// flight.
type Runner struct {
	// Params are the SM timing parameters (Table 2).
	Params sm.Params
	// Energy is the energy model (Tables 3 and 4).
	Energy energy.Model
	// Seed is the default workload seed.
	Seed uint64

	mu        sync.Mutex
	baselines map[baselineKey]*baselineEntry
}

// baselineKey identifies a kernel's baseline run. Kernel variants share
// a name (every needle blocking factor is "needle"), so the blocking
// factor is part of the key, and so is the workload seed the run
// calibrates.
type baselineKey struct {
	name string
	bf   int
	seed uint64
}

// baselineEntry computes one kernel's baseline run exactly once.
type baselineEntry struct {
	once sync.Once
	res  *Result
	err  error
}

// NewRunner returns a Runner with the paper's default parameters.
func NewRunner() *Runner {
	return &Runner{
		Params:    sm.DefaultParams(),
		Energy:    energy.NewModel(),
		Seed:      1,
		baselines: make(map[baselineKey]*baselineEntry),
	}
}

// Run simulates one spec to completion. Options modify the single call:
// WithProbe attaches an observability probe. A kernel that cannot fit
// the configuration fails with a *FitError.
func (r *Runner) Run(spec RunSpec, opts ...RunOption) (*Result, error) {
	return r.RunCtx(context.Background(), spec, opts...)
}

// RunCtx is Run with a deadline: the simulation's cycle loop polls ctx
// and aborts with ctx.Err() when it is cancelled, which is how the
// simulation service bounds per-request work. Two caveats keep shared
// state deterministic: the energy-calibration baseline run a non-baseline
// spec triggers (Baseline) is computed without the context, because its
// result is cached process-wide and must never memoize a caller's
// cancellation; and a completed RunCtx returns counters identical to
// Run's — the context only decides whether the run finishes.
//
// A plain spec is a one-entry stream list, so every run takes one path.
func (r *Runner) RunCtx(ctx context.Context, spec RunSpec, opts ...RunOption) (*Result, error) {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	p, err := r.prepare(spec)
	if err != nil {
		return nil, err
	}
	if o.probe != nil {
		o.probe.Annotate("kernel", p.label())
		o.probe.Annotate("config", p.spec.Config.String())
		if len(p.streams) == 1 {
			o.probe.Annotate("regs", fmt.Sprint(p.streams[0].RegsPerThread))
			o.probe.Annotate("threads", fmt.Sprint(p.occs[0].Threads))
		} else {
			o.probe.Annotate("streams", fmt.Sprint(len(p.streams)))
		}
	}
	machine, err := sm.NewSM(p.smSpec(r.Params, o.probe))
	if err != nil {
		return nil, fmt.Errorf("core: %s under %v: %w", p.label(), p.spec.Config, err)
	}
	defer machine.Release()
	counters, err := machine.RunContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: %s under %v: %w", p.label(), p.spec.Config, err)
	}
	return r.finishResult(p, counters, machine.StreamCounters())
}

// finishResult assembles a Result from completed-run counters,
// attaching the energy breakdown. The snapshot/fork Resume path shares
// it with RunCtx. Energy is calibrated on the kernel's baseline run for
// one stream (calibratedOther); a kernel mix has no single-kernel
// baseline run, so it always self-calibrates on its own counters — which
// is what the baseline-config convention degenerates to anyway.
func (r *Runner) finishResult(p *prepared, counters *stats.Counters, perStream []stats.Counters) (*Result, error) {
	res := &Result{Spec: p.spec, Occupancy: jointOccupancy(p.occs), Counters: counters}
	cfg := p.spec.Config
	if len(p.streams) == 1 {
		other, err := r.calibratedOther(p.streams[0], cfg, counters)
		if err != nil {
			return nil, err
		}
		res.Energy = r.Energy.Evaluate(cfg, counters, other)
		return res, nil
	}
	res.Streams = make([]StreamResult, len(p.streams))
	for i, st := range p.streams {
		res.Streams[i] = StreamResult{Kernel: st.Kernel.Name, Occupancy: p.occs[i], Counters: perStream[i]}
	}
	res.Energy = r.Energy.Evaluate(cfg, counters, r.Energy.CalibrateOther(cfg, counters))
	return res, nil
}

// prepared is a RunSpec resolved to its simulation inputs. RunCtx and
// the snapshot/fork Warm path share it, so a warmed prefix is built
// from exactly the state a direct run would use.
type prepared struct {
	// spec echoes the request, its seed defaulted on the plain spelling.
	spec RunSpec
	// streams is the spec's kernel list — a plain spec is a one-entry
	// list — with each register allocation clamped to the kernel's
	// spill-free demand and each seed defaulted.
	streams []StreamSpec
	// occs is each stream's residency under joint round-robin admission
	// (occupancy.ComputeShared, mirroring the dispatcher's CTA-slot
	// interleave); every stream admits at least one CTA.
	occs []occupancy.Result
	// srcs is each stream's trace source with its resolved register
	// budget.
	srcs []*workloads.Source
}

// prepare resolves a RunSpec, failing with ErrKernelNil for a missing
// kernel and with *FitError when some stream cannot achieve residency.
func (r *Runner) prepare(spec RunSpec) (*prepared, error) {
	streams := spec.Streams
	if len(streams) == 0 {
		if spec.Kernel == nil {
			return nil, ErrKernelNil
		}
		if spec.Seed == 0 {
			spec.Seed = r.Seed
		}
		streams = []StreamSpec{{Kernel: spec.Kernel, RegsPerThread: spec.RegsPerThread, Seed: spec.Seed}}
	} else if spec.Kernel != nil {
		return nil, fmt.Errorf("core: RunSpec.Kernel and RunSpec.Streams are mutually exclusive")
	}
	p := &prepared{spec: spec, streams: make([]StreamSpec, len(streams))}
	reqs := make([]config.KernelRequirements, len(streams))
	regs := make([]int, len(streams))
	for i, st := range streams {
		if st.Kernel == nil {
			return nil, fmt.Errorf("core: stream %d: %w", i, ErrKernelNil)
		}
		if st.RegsPerThread <= 0 || st.RegsPerThread > st.Kernel.RegsNeeded {
			st.RegsPerThread = st.Kernel.RegsNeeded
		}
		if st.Seed == 0 {
			st.Seed = r.Seed
		}
		p.streams[i] = st
		reqs[i] = st.Kernel.Requirements()
		regs[i] = st.RegsPerThread
	}
	p.occs = occupancy.ComputeShared(reqs, spec.Config, regs)
	for i, st := range p.streams {
		if p.occs[i].CTAs < 1 {
			return nil, &FitError{Kernel: st.Kernel.Name, Config: spec.Config, Limiter: p.occs[i].Limiter}
		}
		regsAvail := 0
		if st.RegsPerThread < st.Kernel.RegsNeeded {
			regsAvail = st.RegsPerThread
		}
		p.srcs = append(p.srcs, &workloads.Source{K: st.Kernel, RegsAvail: regsAvail, Seed: st.Seed})
	}
	return p, nil
}

// label names the run: the kernel name, or the "+"-joined stream names.
func (p *prepared) label() string { return StreamNames(p.streams) }

// smSpec builds the SM specification of the run.
func (p *prepared) smSpec(params sm.Params, pr *probe.Probe) sm.Spec {
	streams := make([]sm.StreamSpec, len(p.streams))
	for i, st := range p.streams {
		streams[i] = sm.StreamSpec{Name: st.Kernel.Name, Source: p.srcs[i], ResidentCTAs: p.occs[i].CTAs}
	}
	return sm.Spec{Config: p.spec.Config, Params: params, Streams: streams, Probe: pr}
}

// Baseline returns (and caches) the kernel's run under the baseline
// partitioned 256/64/64 configuration and the Runner's seed — the
// normalization point for every comparative result in the paper.
// Concurrent callers share a single computation per kernel (name and
// blocking factor).
func (r *Runner) Baseline(k *workloads.Kernel) (*Result, error) {
	return r.baseline(k, r.Seed)
}

// baseline is Baseline under the given workload seed, cached per seed.
func (r *Runner) baseline(k *workloads.Kernel, seed uint64) (*Result, error) {
	key := baselineKey{k.Name, k.BF, seed}
	r.mu.Lock()
	e, ok := r.baselines[key]
	if !ok {
		e = &baselineEntry{}
		r.baselines[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		e.res, e.err = r.Run(RunSpec{Kernel: k, Config: config.Baseline(), Seed: seed})
		if e.err != nil {
			e.err = fmt.Errorf("core: baseline for %s: %w", k.Name, e.err)
		}
	})
	return e.res, e.err
}

// calibratedOther returns the benchmark's constant non-bank SM dynamic
// power (watts), calibrated on the baseline run of the stream's kernel
// under the stream's own seed (Section 5.2), so a run's energy does not
// depend on the seed of the Runner that executes it. A run under
// the baseline configuration always self-calibrates on its own counters:
// the simulator is deterministic, so those counters equal the cached
// baseline's, and depending only on the spec (never on cache state) keeps
// results identical whatever order concurrent runs complete in. It also
// avoids re-entering Baseline from within the baseline run itself.
func (r *Runner) calibratedOther(st StreamSpec, cfg config.MemConfig, c *stats.Counters) (float64, error) {
	if cfg == config.Baseline() {
		return r.Energy.CalibrateOther(cfg, c), nil
	}
	base, err := r.baseline(st.Kernel, st.Seed)
	if err != nil {
		return 0, err
	}
	return r.Energy.CalibrateOther(base.Spec.Config, base.Counters), nil
}

// UnboundedShared returns a shared-memory capacity large enough that the
// kernel's residency is never shared-memory limited, used by the Figure 2
// and Figure 4 isolation studies ("unbounded shared memory").
func UnboundedShared(k *workloads.Kernel) int {
	ctas := config.MaxThreadsPerSM / k.ThreadsPerCTA
	return ctas * k.SharedBytesPerCTA
}

// IsolationConfig builds the partitioned configuration the paper's
// Section 3.3 limit studies use: explicit RF and cache capacities, shared
// memory unbounded, and a resident-thread cap.
func IsolationConfig(k *workloads.Kernel, rfBytes, cacheBytes, threads int) config.MemConfig {
	return config.MemConfig{
		Design:      config.Partitioned,
		RFBytes:     rfBytes,
		SharedBytes: UnboundedShared(k),
		CacheBytes:  cacheBytes,
		MaxThreads:  threads,
	}
}
