// The cycle loop's allocation contract: once a simulation's traces are
// memoized and its scratch structures sized, stepping the SM performs no
// heap allocation at all. CI gates on this test, so a regression that
// puts an allocation back on the hot path (a closure that escapes, a map
// on the issue path, a buffer rebuilt per access) fails loudly instead
// of showing up as a slow drift in BenchmarkCycleLoop's ns/op.
package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/occupancy"
	"repro/internal/sm"
	"repro/internal/workloads"
)

// allocMSHRs bounds the MSHR table of the alloc-free runs, so every
// memsys structure is pre-sized (the unbounded model may legitimately
// double its pending-fill table mid-run).
const allocMSHRs = 64

// steadySpec builds a baseline-configuration spec running the named
// kernel with at most maxMSHRs outstanding misses (0 = unbounded).
func steadySpec(tb testing.TB, name string, maxMSHRs int) sm.Spec {
	tb.Helper()
	k, err := workloads.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := config.Baseline()
	occ := occupancy.ComputeShared([]config.KernelRequirements{k.Requirements()}, cfg, nil)[0]
	if occ.CTAs < 1 {
		tb.Fatalf("%s does not fit the baseline configuration", name)
	}
	params := sm.DefaultParams()
	params.MaxMSHRs = maxMSHRs
	return sm.Spec{
		Config:       cfg,
		Params:       params,
		Source:       &workloads.Source{K: k},
		ResidentCTAs: occ.CTAs,
	}
}

// newSteadySM builds a fresh SM from steadySpec.
func newSteadySM(tb testing.TB, name string, maxMSHRs int) *sm.SM {
	tb.Helper()
	machine, err := sm.NewSM(steadySpec(tb, name, maxMSHRs))
	if err != nil {
		tb.Fatal(err)
	}
	return machine
}

// TestForkedCycleLoopAllocFree extends the contract across the
// snapshot boundary: capturing a snapshot may allocate (it builds the
// copy-on-write state), but a forked SM resumes with every scratch
// structure already at its high-water mark, so the post-restore cycle
// loop must heap-allocate exactly zero times.
func TestForkedCycleLoopAllocFree(t *testing.T) {
	for _, name := range []string{"needle", "bfs"} {
		warm := newSteadySM(t, name, allocMSHRs)
		if _, err := warm.Run(); err != nil {
			t.Fatal(err)
		}

		spec := steadySpec(t, name, allocMSHRs)
		parent, err := sm.NewSM(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := parent.RunTo(2000); err != nil {
			t.Fatal(err)
		}
		snap, err := parent.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		fork, err := sm.Fork(spec, snap)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for !fork.Done() {
			if err := fork.Step(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if d := after.Mallocs - before.Mallocs; d != 0 {
			t.Errorf("%s: %d heap allocations during a forked cycle loop, want 0", name, d)
		}
	}
}

// TestCycleLoopSteadyStateAllocFree runs one full simulation to warm the
// trace cache and scratch high-water marks, then re-runs the same
// kernel and requires zero heap allocations across the entire second
// run's cycle loop.
func TestCycleLoopSteadyStateAllocFree(t *testing.T) {
	for _, name := range []string{"needle", "bfs"} {
		warm := newSteadySM(t, name, allocMSHRs)
		if _, err := warm.Run(); err != nil {
			t.Fatal(err)
		}

		machine := newSteadySM(t, name, allocMSHRs)
		machine.Start()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for !machine.Done() {
			if err := machine.Step(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if d := after.Mallocs - before.Mallocs; d != 0 {
			t.Errorf("%s: %d heap allocations during a warmed cycle loop, want 0", name, d)
		}
	}
}
