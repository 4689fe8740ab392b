package sm

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/config"
	"repro/internal/probe"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Snapshot is an SM's frozen simulation state, captured by
// (*SM).Snapshot and resumed by Fork: a copy of the SM's frame (see
// frame.copyFrom for what is copied and what is shared), its clocks
// and counters, and a copy of its probe. A sweep warms one SM to cycle
// K, snapshots it once, and forks the snapshot into N runs that diverge
// on timing parameters, instead of re-simulating N identical warm-up
// prefixes.
//
// A Snapshot is immutable: forks copy out of its frame, never into it,
// and the frame is never handed back to the free list, so any number
// of forks, concurrent ones included, can share one, and it outlives
// the SM it was taken from.
type Snapshot struct {
	fr *frame
	// cfg and prefix are what Fork checks a fork's spec against.
	cfg    config.MemConfig
	prefix prefix

	cycle      int64
	slotFreeAt int64
	counters   stats.Counters
	// prof is the probe's observation state, nil for an unprobed run.
	prof *probe.Probe
}

// PendingSlots returns the size of the snapshot's pending-line (MSHR)
// table.
func (st *Snapshot) PendingSlots() int { return st.fr.mem.PendingSlots() }

// prefix is the part of Params that shapes a run's history from cycle
// 0, so a fork must share it with its snapshot and SetParams cannot
// change it: the scheduler policy, the active-set size and the scatter
// variant.
type prefix struct {
	policy     sched.Policy
	active     int
	aggressive bool
}

// prefixOf returns the prefix-defining fields of p, whose ActiveWarps
// must be positive.
func prefixOf(p Params) (prefix, error) {
	pol, err := sched.ParsePolicy(string(p.Scheduler))
	if err != nil {
		return prefix{}, fmt.Errorf("sm: %w", err)
	}
	return prefix{policy: pol, active: p.ActiveWarps, aggressive: p.AggressiveScatter}, nil
}

// errPrefix is the error a change of a prefix-defining parameter gets.
var errPrefix = errors.New("sm: the scheduler policy, active-set size and AggressiveScatter are prefix-defining and cannot change mid-run")

// Snapshot captures the SM's full simulation state: clocks, counters,
// scheduler cursors, warp and CTA slots, the cache and MSHR state, the
// DRAM channel and the probe. The SM must have started, and must own
// its DRAM channel — a shared memory system injected by the chip
// simulator belongs to every SM at once and cannot be frozen from one.
//
// Snapshot allocates the copy (it runs once per warm prefix); the cycle
// loop of a fork resumed from it stays allocation-free.
func (s *SM) Snapshot() (*Snapshot, error) {
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
	pre, _ := prefixOf(s.params) // NewSM parsed the policy
	st := &Snapshot{
		fr:         new(frame),
		cfg:        s.cfg,
		prefix:     pre,
		cycle:      s.cycle,
		slotFreeAt: s.slotFreeAt,
		counters:   s.streams[0],
	}
	st.fr.copyFrom(s.fr)
	if s.prof != nil {
		st.prof = new(probe.Probe)
		st.prof.CopyFrom(s.prof)
	}
	return st, nil
}

// Fork builds a new SM that resumes from st under spec's parameters —
// the divergence point of a sweep. The parameters that shaped the
// prefix are prefix-defining, and spec must agree with the snapshot on
// them: the configuration, the grid (its size and slot layout), the
// scheduler policy and active-set size, the scatter variant, and
// probed-ness. The divergable timing parameters — op latencies,
// DeschedulePast, MaxMSHRs, the DRAM configuration, and the cache write
// policy — may differ, with "switch at cycle K" semantics: a fork with
// divergent values is bit-identical to a fresh run that calls SetParams
// at the snapshot cycle, the equivalence internal/simtest pins.
//
// Fork only reads st, so any number of forks — concurrent ones included
// — can share one snapshot. A probed snapshot must be forked with
// spec.Probe set to a probe that has not begun (probe.New with the
// fork's writer): Fork copies the snapshot's observation state into it,
// so the records it writes continue the parent's stream.
func Fork(spec Spec, st *Snapshot) (*SM, error) {
	s, err := NewSM(spec)
	if err != nil {
		return nil, err
	}
	if err := st.fits(s); err != nil {
		s.Release()
		return nil, err
	}
	s.fr.copyFrom(st.fr)
	s.sched = s.fr.sched
	s.streams[0] = st.counters
	s.cycle, s.slotFreeAt, s.started = st.cycle, st.slotFreeAt, true
	if s.prof != nil {
		s.prof.CopyFrom(st.prof)
		s.prof.Begin(s.counterRefs(), s.cycle)
	}
	return s, nil
}

// fits refuses a new SM s that cannot take the snapshot's state: one on
// injected memory, or one that differs on a prefix-defining field. The
// configuration fixes the cache geometry, and the parameters the
// scheduler; the grid is the rest of the frame's shape.
func (st *Snapshot) fits(s *SM) error {
	if s.dramModel == nil {
		return fmt.Errorf("sm: cannot fork onto injected shared memory")
	}
	if s.cfg != st.cfg {
		return fmt.Errorf("sm: fork config %v differs from snapshot config %v", s.cfg, st.cfg)
	}
	if pre, err := prefixOf(s.params); err != nil || pre != st.prefix {
		return errPrefix
	}
	if (s.prof != nil) != (st.prof != nil) {
		return fmt.Errorf("sm: probed-ness cannot change across a fork (probes observe from cycle 0)")
	}
	if !s.disp.SameShape(&st.fr.disp) {
		return fmt.Errorf("sm: fork grid or resident CTAs differ from the snapshot's")
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
	next, err := prefixOf(p)
	if err != nil {
		return err
	}
	if cur, _ := prefixOf(s.params); next != cur {
		return errPrefix
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

// RunTo steps the SM until its clock reaches at least cycle or the grid
// completes, whichever comes first — the warm-prefix half of a
// snapshot/fork sweep. It starts the SM if needed and does not finalize
// counters; follow with Snapshot, more stepping, or Run.
func (s *SM) RunTo(cycle int64) error { return s.run(context.Background(), cycle) }

// RunToContext is RunTo with cooperative cancellation, polling ctx on
// the same stride as RunContext.
func (s *SM) RunToContext(ctx context.Context, cycle int64) error { return s.run(ctx, cycle) }

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
