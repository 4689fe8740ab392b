// The cycle loop's allocation contract: once a simulation's traces are
// memoized and its scratch structures sized, stepping the SM performs no
// heap allocation at all. CI gates on this test, so a regression that
// puts an allocation back on the hot path (a closure that escapes, a map
// on the issue path, a buffer rebuilt per access) fails loudly instead
// of showing up as a slow drift in BenchmarkCycleLoop's ns/op.
package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
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

// allocWindow is what heapAllocs saw: the heap allocations the
// process made while f ran, their bytes, and the profile records from
// before the window that stacks diffs against.
type allocWindow struct {
	n, bytes uint64
	before   []runtime.MemProfileRecord
}

// heapAllocs runs f and returns the heap allocations the process made
// meanwhile. Every allocation of the window is sampled
// (runtime.MemProfileRate is 1 for it), so when the count is not zero
// the window's stacks method lists the stacks that allocated, most
// first. Only the profile's records are read before the window; the
// rest of the bookkeeping waits for a failure.
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
func heapAllocs(f func()) allocWindow {
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
	return allocWindow{n: end.Mallocs - start.Mallocs, bytes: end.TotalAlloc - start.TotalAlloc, before: before}
}

// stacks lists the stacks that allocated in the window, most first.
// The memory profile publishes a sample only after a GC cycle
// completes, so it forces two cycles. The list can also hold a few
// stacks of allocations made outside the window, sampled at the usual
// rate.
func (w allocWindow) stacks() string {
	runtime.GC()
	runtime.GC()
	grown := make(map[[32]uintptr]int64)
	for _, r := range memProfile() {
		grown[r.Stack0] += r.AllocObjects
	}
	for _, r := range w.before {
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
	return b.String()
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
// loop must heap-allocate exactly zero times, from its first step.
// Unbounded bfs restores a pending table larger than a fresh one, whose
// first retire needs a survivor buffer sized to match.
func TestForkedCycleLoopAllocFree(t *testing.T) {
	// One P keeps every frame the test releases within reach of the
	// next NewSM or Fork.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		name     string
		maxMSHRs int
	}{{"needle", allocMSHRs}, {"bfs", allocMSHRs}, {"bfs", 0}} {
		warm := newSteadySM(t, c.name, c.maxMSHRs)
		if _, err := warm.Run(); err != nil {
			t.Fatal(err)
		}
		warm.Release()

		spec := steadySpec(t, c.name, c.maxMSHRs)
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
		parent.Release()
		if c.maxMSHRs == 0 && snap.PendingSlots() <= 64 {
			t.Fatalf("%s: the snapshot's pending table has %d slots, want more than a fresh table's 64", c.name, snap.PendingSlots())
		}
		fork, err := sm.Fork(spec, snap)
		if err != nil {
			t.Fatal(err)
		}
		w := heapAllocs(func() {
			for !fork.Done() && err == nil {
				err = fork.Step()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		fork.Release()
		if w.n != 0 {
			t.Errorf("%s (MaxMSHRs %d): %d heap allocations during a forked cycle loop, want 0; allocating stacks:\n%s",
				c.name, c.maxMSHRs, w.n, w.stacks())
		}
	}
}

// TestCycleLoopSteadyStateAllocFree runs one full simulation to warm the
// trace cache and scratch high-water marks, then re-runs the same
// kernel and requires zero heap allocations across the entire second
// run's cycle loop.
func TestCycleLoopSteadyStateAllocFree(t *testing.T) {
	// One P leaves no idle P to wake a new OS thread (runtime.newm via
	// wakep) inside the window, which the window would count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, name := range []string{"needle", "bfs"} {
		warm := newSteadySM(t, name, allocMSHRs)
		if _, err := warm.Run(); err != nil {
			t.Fatal(err)
		}

		machine := newSteadySM(t, name, allocMSHRs)
		machine.Start()
		var err error
		w := heapAllocs(func() {
			for !machine.Done() && err == nil {
				err = machine.Step()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if w.n != 0 {
			t.Errorf("%s: %d heap allocations during a warmed cycle loop, want 0; allocating stacks:\n%s", name, w.n, w.stacks())
		}
	}
}

// runAllocBytes bounds the bytes one primed run or resume allocates.
const runAllocBytes = 4 << 10

// TestRecycledRunAllocs pins what a simulation allocates once its
// traces are hot and a frame of the right size is free: the SM takes
// its warp, cache, MSHR, DRAM and scheduler state from the recycled
// frame, so a hot-trace Runner.Run or a Warm.Resume allocates only
// its Result, the SM's own books and the run's small resolved inputs.
// The bfs resume restores a pending table larger than a fresh one.
//
// A resume's 8 objects are the SM, its counters and Walk visitor, the
// spec's stream list, Finish's counters, the Result, and the frame
// pool's per-P array and registration, which the GC that opens the
// window drops. A run adds the resolved spec's 9.
func TestRecycledRunAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := core.NewRunner()
	spec := func(name string) core.RunSpec {
		k, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return core.RunSpec{Kernel: k, Config: config.Baseline()}
	}
	bfs := spec("bfs")
	warm, err := r.Warm(context.Background(), bfs, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if slots := warm.Snapshot().PendingSlots(); slots <= 64 {
		t.Fatalf("bfs warm prefix holds a %d-slot pending table, want more than a fresh table's 64", slots)
	}
	for _, c := range []struct {
		name    string
		objects uint64
		call    func() error
	}{
		{"Run needle", 17, func() error { _, err := r.Run(spec("needle")); return err }},
		{"Run bfs", 17, func() error { _, err := r.Run(bfs); return err }},
		{"Resume bfs", 8, func() error { _, err := warm.Resume(context.Background(), r, r.Params); return err }},
	} {
		// The first call builds the traces and the energy baseline, the
		// second grows the recycled frame to the run's size.
		for i := 0; i < 2; i++ {
			if err := c.call(); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		w := heapAllocs(func() { err = c.call() })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d objects, %d bytes", c.name, w.n, w.bytes)
		if w.n > c.objects || w.bytes > runAllocBytes {
			t.Errorf("%s: %d heap allocations of %d bytes, want at most %d of at most %d; allocating stacks:\n%s",
				c.name, w.n, w.bytes, c.objects, runAllocBytes, w.stacks())
		}
	}
}
