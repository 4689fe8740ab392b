// Package simtest is the differential-equivalence harness for the
// snapshot/fork machinery: reusable helpers asserting that a run
// continued from a snapshot is bit-identical to a run that never
// snapshotted. The pinned equivalence is
//
//	run to cycle N  ≡  run to K, Snapshot, Fork, run to N
//
// for every counter — and, when parameters diverge at K, that a fork
// under the divergent parameters equals a fresh run that switches the
// same parameters in place at K (sm.SetParams). The package's own tests
// cover all three memory designs, both cache write policies, probed
// NDJSON streams across the boundary, mid-barrier and MSHR-full
// snapshot points, fuzzed (K, mutation) pairs, and concurrent fork
// fan-out. Only those tests use the harness, so the whole package is
// test files.
package simtest

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/config"
	"repro/internal/occupancy"
	"repro/internal/sched"
	"repro/internal/sm"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Case describes one fork-vs-fresh differential scenario.
type Case struct {
	// Kernel is the workload name (workloads.ByName).
	Kernel string
	// Design selects the memory organization; the capacity split is
	// derived the same way the paper's experiments derive it
	// (baseline partition, §4.5 allocation, or the better Fermi split).
	Design config.Design
	// WriteBack selects the write-back cache ablation.
	WriteBack bool
	// MaxMSHRs bounds outstanding misses (0 unbounded).
	MaxMSHRs int
	// Scheduler selects the warp-scheduling policy ("" = two-level).
	Scheduler sched.Policy
	// Seed perturbs per-warp random streams (0 = 1).
	Seed uint64
	// SnapCycle is the warm-prefix target: the snapshot is taken at the
	// first state whose clock reaches it.
	SnapCycle int64
	// SnapWhen, when non-nil, refines the snapshot point: after
	// SnapCycle the run steps on until the predicate holds (or the grid
	// completes) — how tests park the snapshot mid-barrier or MSHR-full.
	SnapWhen func(*sm.SM) bool
	// Mutate, when non-nil, is the parameter divergence applied at the
	// snapshot point (to the fork's spec, and in place on the fresh
	// comparator).
	Mutate func(*sm.Params)
}

// Spec resolves the case to a buildable sm.Spec (occupancy computed the
// way core does).
func (c Case) Spec() (sm.Spec, error) {
	k, err := workloads.ByName(c.Kernel)
	if err != nil {
		return sm.Spec{}, err
	}
	cfg, err := c.memConfig(k)
	if err != nil {
		return sm.Spec{}, err
	}
	params := sm.DefaultParams()
	params.WriteBackCache = c.WriteBack
	params.MaxMSHRs = c.MaxMSHRs
	params.Scheduler = c.Scheduler
	occ := occupancy.ComputeShared([]config.KernelRequirements{k.Requirements()}, cfg, []int{k.RegsNeeded})[0]
	if occ.CTAs < 1 {
		return sm.Spec{}, fmt.Errorf("simtest: %s does not fit %v", c.Kernel, cfg)
	}
	seed := c.Seed
	if seed == 0 {
		seed = 1
	}
	return sm.Spec{
		Config:       cfg,
		Params:       params,
		Source:       &workloads.Source{K: k, Seed: seed},
		ResidentCTAs: occ.CTAs,
	}, nil
}

// memConfig derives the case's memory configuration from its design.
func (c Case) memConfig(k *workloads.Kernel) (config.MemConfig, error) {
	switch c.Design {
	case config.Unified:
		return config.AllocateMulti([]config.KernelRequirements{k.Requirements()}, config.BaselineTotalBytes, 0)
	case config.FermiLike:
		return occupancy.ChooseFermiMulti([]config.KernelRequirements{k.Requirements()}, config.BaselineTotalBytes-config.BaselineRFBytes, 0), nil
	default:
		return config.Baseline(), nil
	}
}

// warm builds the case's SM and advances it to the snapshot point:
// RunTo(SnapCycle), then — when SnapWhen is set — single steps until
// the predicate holds or the grid completes.
func (c Case) warm(spec sm.Spec) (*sm.SM, error) {
	s, err := sm.NewSM(spec)
	if err != nil {
		return nil, err
	}
	if err := s.RunTo(c.SnapCycle); err != nil {
		return nil, err
	}
	if c.SnapWhen != nil {
		for !s.Done() && !c.SnapWhen(s) {
			if err := s.Step(); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// Fresh runs the case's comparator: warm to the snapshot point, apply
// the mutation in place (sm.SetParams), continue to completion. No
// snapshot is involved.
func (c Case) Fresh() (*stats.Counters, error) {
	spec, err := c.Spec()
	if err != nil {
		return nil, err
	}
	s, err := c.warm(spec)
	if err != nil {
		return nil, err
	}
	if c.Mutate != nil && !s.Done() {
		p := spec.Params
		c.Mutate(&p)
		if err := s.SetParams(p); err != nil {
			return nil, err
		}
	}
	return s.Run()
}

// Forked runs the case through the snapshot machinery: warm to the
// snapshot point, Snapshot, Fork under the (possibly mutated)
// parameters, run the fork to completion. The warm parent is abandoned
// untouched after the capture.
func (c Case) Forked() (*stats.Counters, error) {
	spec, err := c.Spec()
	if err != nil {
		return nil, err
	}
	parent, err := c.warm(spec)
	if err != nil {
		return nil, err
	}
	snap, err := parent.Snapshot()
	if err != nil {
		return nil, err
	}
	forkSpec := spec
	if c.Mutate != nil && !parent.Done() {
		c.Mutate(&forkSpec.Params)
	}
	fork, err := sm.Fork(forkSpec, snap)
	if err != nil {
		return nil, err
	}
	return fork.Run()
}

// Differential runs both paths and returns their counters; callers
// assert equality with DiffCounters.
func (c Case) Differential() (fresh, forked *stats.Counters, err error) {
	if fresh, err = c.Fresh(); err != nil {
		return nil, nil, fmt.Errorf("fresh: %w", err)
	}
	if forked, err = c.Forked(); err != nil {
		return nil, nil, fmt.Errorf("forked: %w", err)
	}
	return fresh, forked, nil
}

// DiffCounters compares two counter sets field by field and describes
// every difference, or returns "" when they are identical. Reflection
// keeps the comparison exhaustive: a counter added to stats.Counters is
// covered by every differential test automatically.
func DiffCounters(a, b *stats.Counters) string {
	if a == nil || b == nil {
		if a == b {
			return ""
		}
		return "one counter set is nil"
	}
	va, vb := reflect.ValueOf(*a), reflect.ValueOf(*b)
	t := va.Type()
	var diffs []string
	for i := 0; i < t.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			diffs = append(diffs, fmt.Sprintf("%s: %v != %v", t.Field(i).Name, fa.Interface(), fb.Interface()))
		}
	}
	return strings.Join(diffs, "; ")
}
