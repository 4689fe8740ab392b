// Package sched implements the SM's warp-scheduling policies behind a
// single Scheduler interface: which warps occupy the active set, in what
// order they compete for the one issue slot per cycle, and when a warp is
// moved to the inactive set to wait out a long-latency dependence.
//
// The package owns only scheduling state (the active list and the
// policy's cursor). Warp state — readiness, wake cycles, traces — stays
// with the SM's dispatch component, which the scheduler sees through the
// narrow Pool interface; the issue-time readiness test stays with the SM
// timing core, which drives Walk with a visitor that returns an Action
// per candidate. This split is what lets a policy be swapped without
// touching either the warp bookkeeping or the timing model.
//
// The pool's warps belong to one or more co-resident kernels (streams);
// a single kernel is a one-stream pool. Both policies share one
// promotion rule, stream-fair across streams and oldest-wakeup-first
// within them, so a single kernel sees plain oldest-wakeup-first
// promotion. Two policies are provided:
//
//   - TwoLevel: the paper's two-level scheduler. Ready warps are promoted
//     into a fixed-size active set; the active set is walked round-robin;
//     warps that hit a long-latency dependence are descheduled back to
//     the inactive set.
//   - GTO: greedy-then-oldest. The last-issued warp retries first; on
//     failure the remaining active warps are tried oldest-activation
//     first. Promotion and descheduling follow the same two-level rules,
//     so the comparison isolates the issue-ordering policy.
package sched

import (
	"fmt"
	"slices"
)

// Policy names a scheduler implementation. The zero value selects
// TwoLevel, the paper's policy.
type Policy string

const (
	// TwoLevel is the paper's two-level round-robin scheduler.
	TwoLevel Policy = "twolevel"
	// GTO is the greedy-then-oldest alternative.
	GTO Policy = "gto"
)

// ParsePolicy validates a policy name; the empty string selects TwoLevel.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "", TwoLevel:
		return TwoLevel, nil
	case GTO:
		return GTO, nil
	}
	return "", fmt.Errorf("sched: unknown policy %q (want %q or %q)", s, TwoLevel, GTO)
}

// Pool is the scheduler's view of the warp pool, implemented by the SM's
// dispatch component. Warps are identified by their pool slot index, and
// each slot belongs to one of the pool's co-resident kernels (streams);
// a single-kernel pool has one stream.
type Pool interface {
	// NumStreams returns the number of co-resident streams.
	NumStreams() int
	// Stream returns the stream index owning warp slot w.
	Stream(w int) int
	// MinReady returns the stream's warp Refill must consider next: the
	// one with the oldest wake at or before now, lowest slot index
	// breaking ties, and its wake cycle. ok is false when none of the
	// stream's warps is eligible. Pool implementations answer this from
	// their own ready-set bookkeeping so Refill does not scan every
	// warp slot per cycle.
	MinReady(now int64, stream int) (w int, wake int64, ok bool)
	// Activate marks warp w as a member of the active set.
	Activate(w int)
}

// Action is a Walk visitor's verdict on one candidate warp.
type Action uint8

const (
	// Keep: the candidate cannot issue this cycle (short operand wait or
	// issue-stream serialization) but stays in the active set.
	Keep Action = iota
	// Deschedule: the candidate entered a long-latency wait; remove it
	// from the active set and keep walking.
	Deschedule
	// Issued: the candidate issued an instruction; stop walking.
	Issued
	// IssuedGone: the candidate issued and left the active set (barrier
	// or exit); stop walking.
	IssuedGone
)

// Scheduler is one SM's warp-scheduling policy. Implementations hold the
// active set and a policy cursor; they never inspect warp state directly.
// A Scheduler is not safe for concurrent use; each SM owns one.
type Scheduler interface {
	// Refill promotes eligible warps (Pool.MinReady, wake <= now) into
	// vacant active-set slots: stream-fair first, then oldest wake,
	// lowest slot index breaking ties.
	Refill(pool Pool, now int64)
	// Walk visits active warps in policy priority order, applying each
	// visitor verdict to the active set, until a visit reports Issued or
	// IssuedGone (returning true) or candidates run out (false).
	Walk(visit func(w int) Action) bool
	// Active returns the active set. The slice is the scheduler's own
	// storage in policy-internal order: callers must not modify it.
	Active() []int
	// Len returns the active-set occupancy.
	Len() int
}

// New builds the named policy with the given active-set capacity. When
// prev is a scheduler this package built (nil for none), the new one
// takes over its active list, and prev itself when the policies match,
// so a recycled SM frame keeps one scheduler across runs; prev must not
// be used afterwards.
func New(prev Scheduler, p Policy, capacity int) (Scheduler, error) {
	pol, err := ParsePolicy(string(p))
	if err != nil {
		return nil, err
	}
	if capacity < 1 {
		return nil, fmt.Errorf("sched: active-set capacity %d < 1", capacity)
	}
	tl, g, active := reuse(prev)
	active = slices.Grow(active[:0], capacity)
	if pol == GTO {
		if g == nil {
			g = new(gto)
		}
		*g = gto{capacity: capacity, active: active, last: -1}
		return g, nil
	}
	if tl == nil {
		tl = new(twoLevel)
	}
	*tl = twoLevel{capacity: capacity, active: active}
	return tl, nil
}

// Copy returns a copy of src's scheduling state: its policy, capacity,
// active list and cursor. Like New it reuses dst (nil for none), and
// dst's active list, so a recycled SM frame keeps one scheduler; dst
// must not be used afterwards. The copy never aliases src, so it stays
// valid however src runs on. Both must be schedulers this package
// built.
func Copy(dst, src Scheduler) Scheduler {
	tl, g, active := reuse(dst)
	switch src := src.(type) {
	case *gto:
		if g == nil {
			g = new(gto)
		}
		*g = *src
		g.active = append(active[:0], src.active...)
		return g
	case *twoLevel:
		if tl == nil {
			tl = new(twoLevel)
		}
		*tl = *src
		tl.active = append(active[:0], src.active...)
		return tl
	}
	panic(fmt.Sprintf("sched: cannot copy a %T", src))
}

// reuse returns the storage of prev, a scheduler this package built or
// nil: its policy struct (at most one of tl and g is non-nil) and its
// active list.
func reuse(prev Scheduler) (tl *twoLevel, g *gto, active []int) {
	tl, _ = prev.(*twoLevel)
	g, _ = prev.(*gto)
	switch {
	case tl != nil:
		active = tl.active
	case g != nil:
		active = g.active
	}
	return tl, g, active
}

// refill is the promotion rule both policies share: each vacant slot
// goes to the eligible warp of the stream with the fewest active-set
// members, ties broken by oldest wake cycle then lowest stream index
// (within a stream, Pool.MinReady's oldest-wake/lowest-slot rule
// holds). With one stream this is plain oldest-wakeup-first promotion;
// with several, one kernel's warp surplus cannot starve a co-tenant of
// issue opportunities. The rule is deterministic, so schedules replay
// exactly.
func refill(active []int, capacity int, pool Pool, now int64) []int {
	if len(active) >= capacity {
		return active
	}
	n := pool.NumStreams()
	var countsBuf [8]int
	counts := countsBuf[:]
	if n > len(countsBuf) {
		counts = make([]int, n)
	}
	// One stream never compares candidates across streams, so it skips
	// the tally (the cycle loop calls refill on every step).
	if n > 1 {
		for _, w := range active {
			counts[pool.Stream(w)]++
		}
	}
	for len(active) < capacity {
		best, bestStream, bestWake := -1, -1, int64(0)
		for s := 0; s < n; s++ {
			w, wake, ok := pool.MinReady(now, s)
			if !ok {
				continue
			}
			better := best < 0 ||
				counts[s] < counts[bestStream] ||
				(counts[s] == counts[bestStream] && wake < bestWake)
			if better {
				best, bestStream, bestWake = w, s, wake
			}
		}
		if best < 0 {
			return active
		}
		pool.Activate(best)
		active = append(active, best)
		counts[bestStream]++
	}
	return active
}
