// The cycle loop's allocation contract: once a simulation's traces are
// memoized and its scratch structures sized, stepping the SM performs no
// heap allocation at all. CI gates on this test, so a regression that
// puts an allocation back on the hot path (a closure that escapes, a map
// on the issue path, a buffer rebuilt per access) fails loudly instead
// of showing up as a slow drift in BenchmarkCycleLoop's ns/op.
package repro_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
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

// heapAllocs runs f and returns the number of heap allocations the
// process made meanwhile. Every allocation of the window is sampled
// (runtime.MemProfileRate is 1 for it), so when the count is not zero
// the second result lists the stacks that allocated, most first. The
// memory profile publishes a sample only after a GC cycle completes,
// so collecting the stacks forces two cycles, after the window. The
// list can also hold a few stacks of allocations made before the
// window (since the previous cycle), sampled at the usual rate. Only
// the profile's records are read before the window; the rest of the
// bookkeeping waits for a failure.
//
// The count is process-wide, so the runtime's own work must not land
// in the window. debug.FreeOSMemory comes first: it finishes any GC
// cycle in progress (whose mark workers allocate), runs one more, and
// returns the freed pages itself, which leaves the background
// scavenger no work to wake for (its first sleep on a P allocates a
// timer slot). A plain runtime.GC() here is worse than nothing: the
// scavenger then wakes inside the window. A throwaway ReadMemStats
// follows, so the OS thread that restarting the world can start is
// made before the window opens.
func heapAllocs(f func()) (uint64, string) {
	var start, end runtime.MemStats
	debug.FreeOSMemory()
	runtime.ReadMemStats(&start)
	before := memProfile()
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	runtime.ReadMemStats(&start)
	f()
	runtime.ReadMemStats(&end)
	runtime.MemProfileRate = rate
	n := end.Mallocs - start.Mallocs
	if n == 0 {
		return 0, ""
	}
	runtime.GC()
	runtime.GC()
	grown := make(map[[32]uintptr]int64)
	for _, r := range memProfile() {
		grown[r.Stack0] += r.AllocObjects
	}
	for _, r := range before {
		grown[r.Stack0] -= r.AllocObjects
	}
	type site struct {
		stack [32]uintptr
		n     int64
	}
	var sites []site
	for stack, d := range grown {
		if d > 0 {
			sites = append(sites, site{stack, d})
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].n > sites[j].n })
	var b strings.Builder
	for _, s := range sites {
		fmt.Fprintf(&b, "%d allocation(s) at:\n", s.n)
		rec := runtime.StackRecord{Stack0: s.stack}
		frames := runtime.CallersFrames(rec.Stack())
		for {
			fr, more := frames.Next()
			fmt.Fprintf(&b, "\t%s\n\t\t%s:%d\n", fr.Function, fr.File, fr.Line)
			if !more {
				break
			}
		}
	}
	return n, b.String()
}

// memProfile returns the memory profile's records.
func memProfile() []runtime.MemProfileRecord {
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+16)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			return recs[:n]
		}
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
		d, stacks := heapAllocs(func() {
			for !fork.Done() && err == nil {
				err = fork.Step()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if d != 0 {
			t.Errorf("%s: %d heap allocations during a forked cycle loop, want 0; allocating stacks:\n%s", name, d, stacks)
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
		var err error
		d, stacks := heapAllocs(func() {
			for !machine.Done() && err == nil {
				err = machine.Step()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if d != 0 {
			t.Errorf("%s: %d heap allocations during a warmed cycle loop, want 0; allocating stacks:\n%s", name, d, stacks)
		}
	}
}
