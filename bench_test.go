// BenchmarkCycleLoop times the simulator's innermost loop. End-to-end
// timings of the paper experiments, the fork sweep and the service live
// in the repository benchmark (repobench/), whose reports make up the
// committed BENCH_results.json.
//
//	go test -run '^$' -bench '^BenchmarkCycleLoop$' -benchmem .
package repro_test

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sm"
)

// BenchmarkCycleLoop measures the steady-state cost of one SM
// scheduling action (sm.Step) with a hot trace cache. It steps needle
// on the baseline configuration with unbounded MSHRs, the configuration
// earlier ns/op records were taken on. SM construction, and
// reconstruction whenever a simulation completes mid-benchmark, happens
// with the timer stopped, so ns/op and allocs/op measure only the cycle
// loop itself; CI gates on allocs/op staying zero.
func BenchmarkCycleLoop(b *testing.B) {
	b.ReportAllocs()
	// Warm up with one complete run: every (cta, warp) trace and outcome
	// table is memoized and every lazily-grown scratch buffer has reached
	// its high-water mark before the timer starts.
	if _, err := newSteadySM(b, "needle", 0).Run(); err != nil {
		b.Fatal(err)
	}
	machine := newSteadySM(b, "needle", 0)
	machine.Start()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if machine.Done() {
			b.StopTimer()
			machine = newSteadySM(b, "needle", 0)
			machine.Start()
			b.StartTimer()
		}
		if err := machine.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCycleLoopMemoryBound is BenchmarkCycleLoop on bfs, a
// memory-bound gather kernel whose warps spend most steps waiting on
// DRAM, under each scheduling policy: it times the warp choice when
// few active warps are due, where needle times it when most are.
//
//	go test -run '^$' -bench '^BenchmarkCycleLoopMemoryBound$' -benchmem .
func BenchmarkCycleLoopMemoryBound(b *testing.B) {
	for _, pol := range []sched.Policy{sched.TwoLevel, sched.GTO} {
		b.Run(string(pol), func(b *testing.B) {
			b.ReportAllocs()
			spec := steadySpec(b, "bfs", 0)
			spec.Params.Scheduler = pol
			start := func() *sm.SM {
				machine, err := sm.NewSM(spec)
				if err != nil {
					b.Fatal(err)
				}
				machine.Start()
				return machine
			}
			// One complete run memoizes the traces and sizes the scratch
			// buffers before the timer starts.
			if _, err := start().Run(); err != nil {
				b.Fatal(err)
			}
			machine := start()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if machine.Done() {
					b.StopTimer()
					machine = start()
					b.StartTimer()
				}
				if err := machine.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
