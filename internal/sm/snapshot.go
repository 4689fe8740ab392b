package sm

import (
	"context"
	"fmt"

	"repro/internal/sched"
	"repro/internal/snapshot"
)

// Snapshot captures the SM's full simulation state as an immutable
// snapshot.State: clocks, counters, scheduler cursors, warp and CTA
// slots, the cache and MSHR state, and the DRAM channel (see the
// internal/snapshot package comment for the copy-on-write rules). The
// SM must have started, and must own its DRAM channel — a shared memory
// system injected by the chip simulator belongs to every SM at once and
// cannot be frozen from one.
//
// Snapshot may allocate freely (it runs once per warm prefix); the
// cycle loop of a fork restored from the State stays allocation-free.
func (s *SM) Snapshot() (*snapshot.State, error) {
	if s.fr == nil {
		return nil, ErrReleased
	}
	if !s.started {
		return nil, fmt.Errorf("sm: cannot snapshot before Start")
	}
	if s.dramModel == nil {
		return nil, fmt.Errorf("sm: cannot snapshot an SM with injected shared memory")
	}
	if len(s.streams) > 1 {
		return nil, fmt.Errorf("sm: multi-tenant runs do not snapshot (streams are prefix-defining)")
	}
	return &snapshot.State{
		Config:     s.cfg,
		Aggressive: s.params.AggressiveScatter,
		Greedy:     s.params.GreedyScheduler,
		Cycle:      s.cycle,
		SlotFreeAt: s.slotFreeAt,
		Started:    s.started,
		Counters:   s.streams[0],
		Sched:      s.sched.Snapshot(),
		Disp:       s.disp.Snapshot(),
		Mem:        s.mem.Snapshot(),
		DRAM:       s.dramModel.Snapshot(),
		Probe:      s.prof.Snapshot(),
	}, nil
}

// Fork builds a new SM that resumes from st under spec's parameters —
// the divergence point of a sweep. spec must agree with the snapshot on
// every prefix-defining field (configuration, grid source, scheduler
// policy and active-set size, greedy flag, scatter variant, and
// probed-ness); the divergable timing parameters — op latencies,
// DeschedulePast, MaxMSHRs, the DRAM configuration, and the cache write
// policy — may differ, with "switch at cycle K" semantics: a fork with
// divergent values is bit-identical to a fresh run that calls SetParams
// at the snapshot cycle.
//
// Fork only reads st, so any number of forks — concurrent ones included
// — can share one snapshot. A probed snapshot must be forked with
// spec.Probe set to a probe built by probe.Restore from st.Probe; Fork
// rebinds it to the new SM's counters.
func Fork(spec Spec, st *snapshot.State) (*SM, error) {
	if spec.Memory != nil {
		return nil, fmt.Errorf("sm: cannot fork onto injected shared memory")
	}
	if spec.Config != st.Config {
		return nil, fmt.Errorf("sm: fork config %v differs from snapshot config %v", spec.Config, st.Config)
	}
	if spec.Params.AggressiveScatter != st.Aggressive {
		return nil, fmt.Errorf("sm: AggressiveScatter is prefix-defining and cannot diverge across a fork")
	}
	if spec.Params.GreedyScheduler != st.Greedy {
		return nil, fmt.Errorf("sm: GreedyScheduler is prefix-defining and cannot diverge across a fork")
	}
	if (spec.Probe != nil) != (st.Probe != nil) {
		return nil, fmt.Errorf("sm: probed-ness cannot change across a fork (probes observe from cycle 0)")
	}
	s, err := NewSM(spec)
	if err != nil {
		return nil, err
	}
	if err := s.restore(st); err != nil {
		s.Release()
		return nil, fmt.Errorf("sm: fork: %w", err)
	}
	return s, nil
}

// restore overwrites a freshly built SM's state with st's.
func (s *SM) restore(st *snapshot.State) error {
	s.streams[0] = st.Counters
	s.cycle = st.Cycle
	s.slotFreeAt = st.SlotFreeAt
	s.started = st.Started
	if err := s.sched.Restore(st.Sched); err != nil {
		return err
	}
	if err := s.disp.Restore(st.Disp); err != nil {
		return err
	}
	if err := s.mem.Restore(st.Mem); err != nil {
		return err
	}
	s.dramModel.Restore(st.DRAM)
	if s.prof != nil {
		s.prof.Rebind(s.counterRefs())
	}
	return nil
}

// SetParams switches the divergable timing parameters mid-run — the
// in-place equivalent of forking, used as the fresh-run comparator in
// differential tests (warm, switch, continue ≡ warm, snapshot, fork).
// Prefix-defining fields must not change; see Fork.
func (s *SM) SetParams(p Params) error {
	if s.fr == nil {
		return ErrReleased
	}
	if p.ActiveWarps < 1 {
		p.ActiveWarps = s.params.ActiveWarps
	}
	newPol, err := sanitizePolicy(p)
	if err != nil {
		return err
	}
	curPol, _ := sanitizePolicy(s.params)
	if newPol != curPol || p.ActiveWarps != s.params.ActiveWarps {
		return fmt.Errorf("sm: scheduler policy and active-set size are prefix-defining and cannot change mid-run")
	}
	if p.AggressiveScatter != s.params.AggressiveScatter {
		return fmt.Errorf("sm: AggressiveScatter is prefix-defining and cannot change mid-run")
	}
	if p.GreedyScheduler != s.params.GreedyScheduler {
		return fmt.Errorf("sm: GreedyScheduler is prefix-defining and cannot change mid-run")
	}
	if p.DRAM != s.params.DRAM && s.dramModel == nil {
		return fmt.Errorf("sm: cannot retime injected shared memory")
	}
	if err := s.mem.SetTiming(memConfig(s.cfg, p)); err != nil {
		return fmt.Errorf("sm: %w", err)
	}
	if s.dramModel != nil {
		s.dramModel.SetConfig(p.DRAM)
	}
	s.params = p
	return nil
}

// Params returns the SM's current timing parameters.
func (s *SM) Params() Params { return s.params }

// RunTo steps the SM until its clock reaches at least cycle or the grid
// completes, whichever comes first — the warm-prefix half of a
// snapshot/fork sweep. It starts the SM if needed and does not finalize
// counters; follow with Snapshot, more stepping, or Run.
func (s *SM) RunTo(cycle int64) error {
	return s.RunToContext(context.Background(), cycle)
}

// RunToContext is RunTo with cooperative cancellation, polling ctx on
// the same stride as RunContext.
func (s *SM) RunToContext(ctx context.Context, cycle int64) error {
	poll := ctx != nil && ctx.Done() != nil
	s.Start()
	budget := ctxCheckInterval
	for !s.Done() && s.cycle < cycle {
		if err := s.Step(); err != nil {
			return err
		}
		if budget--; budget == 0 {
			budget = ctxCheckInterval
			if poll {
				select {
				case <-ctx.Done():
					return ctx.Err()
				default:
				}
			}
		}
	}
	return nil
}

// BarrierWarps returns the number of warps currently blocked at a CTA
// barrier — the differential harness uses it to place snapshots at
// mid-barrier points.
func (s *SM) BarrierWarps() int {
	barrier, _ := s.disp.Counts()
	return barrier
}

// InFlightFills returns the number of cache line fills outstanding at
// the current cycle — the differential harness uses it to place
// snapshots at MSHR-full points.
func (s *SM) InFlightFills() int { return s.mem.InFlight(s.cycle) }

// sanitizePolicy resolves the Params' scheduler policy name.
func sanitizePolicy(p Params) (sched.Policy, error) {
	pol, err := sched.ParsePolicy(string(p.Scheduler))
	if err != nil {
		return "", fmt.Errorf("sm: %w", err)
	}
	return pol, nil
}
