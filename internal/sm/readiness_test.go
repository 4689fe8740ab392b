package sm

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/dispatch"
	"repro/internal/isa"
	"repro/internal/occupancy"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// readinessSpec builds a baseline-configuration spec co-running the
// named kernels, each with its joint share of the CTA slots.
func readinessSpec(t *testing.T, pol sched.Policy, names ...string) Spec {
	t.Helper()
	var reqs []config.KernelRequirements
	var streams []StreamSpec
	for _, name := range names {
		k, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, k.Requirements())
		streams = append(streams, StreamSpec{Name: name, Source: &workloads.Source{K: k}})
	}
	cfg := config.Baseline()
	for i, occ := range occupancy.ComputeShared(reqs, cfg, nil) {
		if occ.CTAs < 1 {
			t.Fatalf("%s does not fit beside %v", names[i], names)
		}
		streams[i].ResidentCTAs = occ.CTAs
	}
	params := DefaultParams()
	params.Scheduler = pol
	return Spec{Config: cfg, Params: params, Streams: streams}
}

// readinessChecker holds, per warp slot, the Issue term read off the
// run independently of the SM: zero from the warp's launch, and the
// issue cycle plus one plus the instruction's bank-conflict extra
// cycles from each of its issues on.
type readinessChecker struct {
	t     *testing.T
	issue []int64
	// pc and status are each slot's warp before the step.
	pc     []int
	status []dispatch.Status
}

func newReadinessChecker(t *testing.T, s *SM) *readinessChecker {
	n := s.disp.NumWarps()
	c := &readinessChecker{t: t, issue: make([]int64, n), pc: make([]int, n), status: make([]dispatch.Status, n)}
	c.mark(s)
	return c
}

// mark records every slot's warp before a step.
func (c *readinessChecker) mark(s *SM) {
	for i := range c.pc {
		w := s.disp.Warp(i)
		c.pc[i], c.status[i] = w.PC, w.Status
	}
}

// step steps s once and requires every live warp's stored terms to
// equal the independent ones: the Issue term tracked from its issues,
// and the largest RegReady over the sources of its next instruction.
func (c *readinessChecker) step(s *SM, what string) {
	c.t.Helper()
	if err := s.Step(); err != nil {
		c.t.Fatal(err)
	}
	for i := range c.pc {
		w := s.disp.Warp(i)
		if w.Status == dispatch.Idle || w.Status == dispatch.Done {
			continue
		}
		switch {
		case c.status[i] == dispatch.Idle || c.status[i] == dispatch.Done || w.PC < c.pc[i]:
			c.issue[i] = 0 // a launch: every program ends in EXIT, so PC fell
		case w.PC == c.pc[i]+1:
			// An instruction issued at the step's cycle (a barrier
			// advances the PC past its BAR too).
			c.issue[i] = s.cycle + 1 + int64(w.Outcomes[c.pc[i]].ExtraCycles())
		case w.PC != c.pc[i]:
			c.t.Fatalf("%s cycle %d: warp %d moved from PC %d to %d in one step", what, s.cycle, i, c.pc[i], w.PC)
		}
		dep := int64(0)
		for _, src := range w.Code.Prog.Insts[w.PC].Srcs {
			if src.Reg != isa.NoReg && w.RegReady[src.Reg] > dep {
				dep = w.RegReady[src.Reg]
			}
		}
		if got := s.disp.Slot(i); got.Issue != c.issue[i] || got.Dep != dep {
			c.t.Fatalf("%s cycle %d: warp %d (%v, PC %d) holds Issue %d, Dep %d, want %d, %d",
				what, s.cycle, i, w.Status, w.PC, got.Issue, got.Dep, c.issue[i], dep)
		}
	}
	c.mark(s)
}

// run steps s until it finishes or its clock reaches until.
func (c *readinessChecker) run(s *SM, until int64, what string) {
	c.t.Helper()
	for !s.Done() && s.cycle < until {
		c.step(s, what)
	}
}

// TestReadinessTermsMatchBruteForce steps needle, bfs and a two-kernel
// mix under both policies and, after every step, compares each live
// warp's stored readiness terms with terms derived without them. A
// single-kernel run is also snapshotted halfway and forked: the fork
// must restore the parent's terms, keep them exact to the end, and
// finish with the parent's counters.
func TestReadinessTermsMatchBruteForce(t *testing.T) {
	for _, pol := range []sched.Policy{sched.TwoLevel, sched.GTO} {
		for _, names := range [][]string{{"needle"}, {"bfs"}, {"needle", "bfs"}} {
			what := string(pol) + " " + names[0]
			if len(names) > 1 {
				what += "+" + names[1]
			}
			spec := readinessSpec(t, pol, names...)
			if len(names) == 1 {
				spec.Source, spec.ResidentCTAs = spec.Streams[0].Source, spec.Streams[0].ResidentCTAs
				spec.Streams = nil
			}
			s, err := NewSM(spec)
			if err != nil {
				t.Fatal(err)
			}
			s.Start()
			c := newReadinessChecker(t, s)
			if len(names) > 1 {
				c.run(s, cycleBound, what)
				continue
			}
			// Time a fresh run to place the snapshot halfway.
			full, err := NewSM(spec)
			if err != nil {
				t.Fatal(err)
			}
			counters, err := full.Run()
			if err != nil {
				t.Fatal(err)
			}
			c.run(s, counters.Cycles/2, what)
			st, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			fork, err := Fork(spec, st)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < s.disp.NumWarps(); i++ {
				if *fork.disp.Slot(i) != *s.disp.Slot(i) {
					t.Fatalf("%s: fork copied warp %d's slot as %+v, parent holds %+v", what, i, *fork.disp.Slot(i), *s.disp.Slot(i))
				}
			}
			fc := &readinessChecker{t: t, issue: append([]int64(nil), c.issue...), pc: make([]int, len(c.pc)), status: make([]dispatch.Status, len(c.pc))}
			fc.mark(fork)
			fc.run(fork, cycleBound, what+" fork")
			c.run(s, cycleBound, what)
			if got, want := *fork.Finish(), *s.Finish(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: fork finished with %+v, parent with %+v", what, got, want)
			}
		}
	}
}
