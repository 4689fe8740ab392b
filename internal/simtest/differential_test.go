package simtest

import (
	"testing"

	"repro/internal/config"
	"repro/internal/sched"
	"repro/internal/sm"
)

// TestForkEqualsFreshAllDesigns pins the core equivalence for every
// memory design crossed with both cache write policies: a run forked at
// cycle K finishes with counters identical to a run that never
// snapshotted. mummer is the cache-limited stress (misses, sectored
// fills in flight at K); matrixmul adds shared memory and barriers.
func TestForkEqualsFreshAllDesigns(t *testing.T) {
	t.Parallel()
	designs := []config.Design{config.Partitioned, config.Unified, config.FermiLike}
	for _, kernel := range []string{"mummer", "matrixmul"} {
		for _, design := range designs {
			for _, wb := range []bool{false, true} {
				c := Case{
					Kernel:    kernel,
					Design:    design,
					WriteBack: wb,
					SnapCycle: 3000,
				}
				name := kernel + "/" + design.String() + "/wb=" + map[bool]string{false: "through", true: "back"}[wb]
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					fresh, forked, err := c.Differential()
					if err != nil {
						t.Fatal(err)
					}
					if d := DiffCounters(fresh, forked); d != "" {
						t.Errorf("fork at cycle %d diverged from fresh run: %s", c.SnapCycle, d)
					}
				})
			}
		}
	}
}

// TestForkEqualsFreshSchedulers covers both policies: the scheduler's
// cursor (round-robin position, last-issued warp) must survive the
// snapshot.
func TestForkEqualsFreshSchedulers(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name   string
		policy sched.Policy
	}{
		{"gto", sched.GTO},
		{"twolevel", sched.TwoLevel},
	} {
		c := Case{Kernel: "bfs", Scheduler: tc.policy, SnapCycle: 2000}
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			fresh, forked, err := c.Differential()
			if err != nil {
				t.Fatal(err)
			}
			if d := DiffCounters(fresh, forked); d != "" {
				t.Errorf("fork diverged from fresh run: %s", d)
			}
		})
	}
}

// TestForkMidBarrier parks the snapshot at a point where warps are
// blocked at a CTA barrier: the per-CTA barrier wait counts and the
// blocked warps' statuses must restore exactly, or the barrier releases
// with the wrong population.
func TestForkMidBarrier(t *testing.T) {
	t.Parallel()
	c := Case{
		Kernel:    "matrixmul",
		SnapCycle: 500,
		SnapWhen:  func(s *sm.SM) bool { return s.BarrierWarps() > 0 },
	}
	fresh, forked, err := c.Differential()
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffCounters(fresh, forked); d != "" {
		t.Errorf("mid-barrier fork diverged from fresh run: %s", d)
	}
}

// TestForkMSHRFull parks the snapshot while the bounded miss table is
// saturated: every in-flight fill (the pending table's open-addressed
// slots, verbatim) and the MSHR-blocked window must restore exactly.
func TestForkMSHRFull(t *testing.T) {
	t.Parallel()
	const mshrs = 4
	c := Case{
		Kernel:    "mummer",
		MaxMSHRs:  mshrs,
		SnapCycle: 200,
		SnapWhen:  func(s *sm.SM) bool { return s.InFlightFills() >= mshrs },
	}
	fresh, forked, err := c.Differential()
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffCounters(fresh, forked); d != "" {
		t.Errorf("MSHR-full fork diverged from fresh run: %s", d)
	}
}

// TestForkDivergentParams pins the sweep semantics: a fork whose
// parameters diverge at K equals a fresh run that switches the same
// parameters in place at K (sm.SetParams). Each mutation exercises one
// divergable axis.
func TestForkDivergentParams(t *testing.T) {
	t.Parallel()
	muts := []struct {
		name string
		fn   func(*sm.Params)
	}{
		{"mshrs", func(p *sm.Params) { p.MaxMSHRs = 6 }},
		{"dram-latency", func(p *sm.Params) { p.DRAM.LatencyCycles = 700 }},
		{"dram-bandwidth", func(p *sm.Params) { p.DRAM.BytesPerCycle = 4 }},
		{"alu-latency", func(p *sm.Params) { p.ALULatency = 12 }},
		{"write-policy", func(p *sm.Params) { p.WriteBackCache = true }},
		{"deschedule", func(p *sm.Params) { p.DeschedulePast = 8 }},
	}
	for _, m := range muts {
		c := Case{Kernel: "mummer", SnapCycle: 2500, Mutate: m.fn}
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			fresh, forked, err := c.Differential()
			if err != nil {
				t.Fatal(err)
			}
			if d := DiffCounters(fresh, forked); d != "" {
				t.Errorf("divergent fork != in-place param switch: %s", d)
			}
		})
	}
}

// TestForkAfterCompletion covers the degenerate warm prefix: when the
// grid finishes before the warm target, the fork resumes a completed
// grid and must still report the fresh run's counters.
func TestForkAfterCompletion(t *testing.T) {
	t.Parallel()
	c := Case{Kernel: "vectoradd", SnapCycle: 1 << 40}
	fresh, forked, err := c.Differential()
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffCounters(fresh, forked); d != "" {
		t.Errorf("completed-grid fork diverged: %s", d)
	}
}

// TestForkRejectsPrefixDefiningDivergence pins the guard rails: the
// fields that alter history before K must be rejected, not silently
// accepted into a meaningless hybrid.
func TestForkRejectsPrefixDefiningDivergence(t *testing.T) {
	t.Parallel()
	c := Case{Kernel: "vectoradd", SnapCycle: 100}
	spec, err := c.Spec()
	if err != nil {
		t.Fatal(err)
	}
	parent, err := sm.NewSM(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.RunTo(c.SnapCycle); err != nil {
		t.Fatal(err)
	}
	snap, err := parent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		fn   func(*sm.Spec)
	}{
		{"config", func(s *sm.Spec) { s.Config.CacheBytes *= 2 }},
		{"scatter", func(s *sm.Spec) { s.Params.AggressiveScatter = true }},
		{"scheduler", func(s *sm.Spec) { s.Params.Scheduler = sched.GTO }},
		{"active-warps", func(s *sm.Spec) { s.Params.ActiveWarps = 16 }},
	}
	for _, b := range bad {
		forkSpec := spec
		b.fn(&forkSpec)
		if _, err := sm.Fork(forkSpec, snap); err == nil {
			t.Errorf("Fork accepted prefix-defining divergence %s", b.name)
		}
	}
}

// TestForkIntoSmallerMSHRBound pins what a fork into a tighter MSHR
// bound inherits: only the fills still in flight at the capture. needle
// runs unbounded to half its length and then forks with 32 MSHRs; fills
// that had already arrived must not count against the new bound, and
// the tighter bound must then cost cycles. The fork still has to equal
// the in-place SetParams comparator.
func TestForkIntoSmallerMSHRBound(t *testing.T) {
	t.Parallel()
	unbounded, err := Case{Kernel: "needle"}.Fresh()
	if err != nil {
		t.Fatal(err)
	}
	c := Case{
		Kernel:    "needle",
		SnapCycle: unbounded.Cycles / 2,
		Mutate:    func(p *sm.Params) { p.MaxMSHRs = 32 },
	}
	fresh, forked, err := c.Differential()
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffCounters(fresh, forked); d != "" {
		t.Errorf("MSHR fork != in-place param switch: %s", d)
	}
	if forked.Cycles == unbounded.Cycles {
		t.Errorf("fork into 32 MSHRs took the unbounded run's %d cycles: the tighter bound never bound", forked.Cycles)
	}
}
