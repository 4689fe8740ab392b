package core

import (
	"context"
	"fmt"

	"repro/internal/occupancy"
	"repro/internal/sm"
	"repro/internal/workloads"
)

// Warm is a reusable warmed simulation prefix: one spec run to (at
// least) a target cycle under the warming Runner's parameters, frozen
// as an sm.Snapshot. A sweep builds one Warm and resumes it
// once per divergent parameter point, paying the warm-up cost once.
//
// A Warm is immutable after construction and safe for concurrent
// Resume calls — forks copy out of the snapshot, never into it.
type Warm struct {
	// Spec is the resolved run the prefix executed (seed defaulted).
	Spec RunSpec
	// Occupancy is the CTA residency the configuration admitted.
	Occupancy occupancy.Result
	// Params are the timing parameters the prefix ran under.
	Params sm.Params
	// Cycle is the snapshot's capture cycle (>= the requested warm
	// cycle unless the grid completed first).
	Cycle int64

	run  *prepared
	snap *sm.Snapshot
	// done records that the grid completed before the warm target: the
	// prefix consumed the whole run, so there is nothing left for a
	// param switch to affect.
	done bool
}

// Warm runs spec to the target cycle under r.Params and captures the
// state. A warmCycles at or past the grid's completion is not an error:
// the snapshot then holds a finished grid and every Resume returns the
// completed run. Infeasible configurations fail with *FitError, like
// Run; specs of two or more streams are refused (the stream list is
// prefix-defining).
func (r *Runner) Warm(ctx context.Context, spec RunSpec, warmCycles int64) (*Warm, error) {
	if len(spec.Streams) > 1 {
		return nil, fmt.Errorf("core: multi-tenant streams do not support snapshot/fork (streams are prefix-defining)")
	}
	p, err := r.prepare(spec)
	if err != nil {
		return nil, err
	}
	machine, err := sm.NewSM(p.smSpec(r.Params, nil))
	if err != nil {
		return nil, fmt.Errorf("core: warm %s under %v: %w", p.label(), p.spec.Config, err)
	}
	defer machine.Release()
	if err := machine.RunToContext(ctx, warmCycles); err != nil {
		return nil, fmt.Errorf("core: warm %s under %v: %w", p.label(), p.spec.Config, err)
	}
	snap, err := machine.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("core: warm %s: %w", p.label(), err)
	}
	return &Warm{
		Spec:      p.spec,
		Occupancy: p.occs[0],
		Params:    r.Params,
		Cycle:     machine.Cycle(),
		run:       p,
		snap:      snap,
		done:      machine.Done(),
	}, nil
}

// Resume forks the warmed state under params — which may diverge from
// the warm prefix's on any non-prefix-defining field (op latencies,
// DeschedulePast, MaxMSHRs, DRAM configuration, write policy; see
// sm.Fork) — and runs it to completion. dst supplies the energy
// calibration for the Result (its Params are not consulted for timing),
// so sweep points can share one Runner and its cached baselines.
//
// The semantics are "switch parameters at the warm cycle": Resume with
// divergent params is bit-identical to ResumeExact with the same
// params, which internal/simtest pins.
func (w *Warm) Resume(ctx context.Context, dst *Runner, params sm.Params) (*Result, error) {
	machine, err := sm.Fork(w.run.smSpec(params, nil), w.snap)
	if err != nil {
		return nil, fmt.Errorf("core: resume %s: %w", w.run.label(), err)
	}
	defer machine.Release()
	counters, err := machine.RunContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: resume %s under %v: %w", w.run.label(), w.Spec.Config, err)
	}
	return dst.finishResult(w.run, counters, machine.StreamCounters())
}

// ResumeExact is the fresh-run comparator for Resume: a new SM runs the
// prefix from cycle 0 under the warm parameters, switches to params in
// place at the warm cycle (sm.SetParams), and continues to completion —
// no snapshot or fork involved. The differential-equivalence harness
// asserts Resume ≡ ResumeExact; benchmarks use the pair to measure the
// fork speedup on identical work.
func (w *Warm) ResumeExact(ctx context.Context, dst *Runner, params sm.Params) (*Result, error) {
	machine, err := sm.NewSM(w.run.smSpec(w.Params, nil))
	if err != nil {
		return nil, fmt.Errorf("core: %s under %v: %w", w.run.label(), w.Spec.Config, err)
	}
	defer machine.Release()
	if err := machine.RunToContext(ctx, w.Cycle); err != nil {
		return nil, fmt.Errorf("core: %s under %v: %w", w.run.label(), w.Spec.Config, err)
	}
	// A prefix that consumed the whole run leaves nothing for the param
	// switch to affect; skipping it avoids a switch point that the
	// cycle-targeted replay cannot pin to the same step.
	if !w.done {
		if err := machine.SetParams(params); err != nil {
			return nil, fmt.Errorf("core: %s: %w", w.run.label(), err)
		}
	}
	counters, err := machine.RunContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: %s under %v: %w", w.run.label(), w.Spec.Config, err)
	}
	return dst.finishResult(w.run, counters, machine.StreamCounters())
}

// Snapshot exposes the frozen state for callers that fork at the sm
// layer.
func (w *Warm) Snapshot() *sm.Snapshot { return w.snap }

// Source exposes the trace source the prefix ran from, for sm-layer
// forks.
func (w *Warm) Source() *workloads.Source { return w.run.srcs[0] }
