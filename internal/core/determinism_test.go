package core

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/workloads"
)

// TestRunTwiceIdenticalCounters is the determinism property the parallel
// experiment engine rests on: simulating the same (kernel, config) twice
// from fresh state must produce bit-identical counters, occupancy, and
// energy. Any hidden global state in trace generation, the SM model, or
// the memory system would show up here before it can become a race.
func TestRunTwiceIdenticalCounters(t *testing.T) {
	// A spread of memory behaviours: streaming, divergent gather,
	// shared-memory wavefront, and a spilling configuration.
	specs := []RunSpec{
		{Kernel: mustKernel(t, "vectoradd"), Config: config.Baseline()},
		{Kernel: mustKernel(t, "bfs"), Config: config.Baseline()},
		{Kernel: mustKernel(t, "needle"), Config: config.Baseline()},
		{Kernel: mustKernel(t, "pcr"), Config: config.Baseline(), RegsPerThread: 18},
	}
	for _, spec := range specs {
		fresh := func() *Result {
			res, err := NewRunner().Run(spec)
			if err != nil {
				t.Fatalf("%s: %v", spec.Kernel.Name, err)
			}
			return res
		}
		a, b := fresh(), fresh()
		if !reflect.DeepEqual(a.Counters, b.Counters) {
			t.Errorf("%s: counters differ across fresh runs:\nfirst:  %+v\nsecond: %+v",
				spec.Kernel.Name, a.Counters, b.Counters)
		}
		if a.Occupancy != b.Occupancy {
			t.Errorf("%s: occupancy differs across fresh runs: %+v vs %+v",
				spec.Kernel.Name, a.Occupancy, b.Occupancy)
		}
		if a.Energy != b.Energy {
			t.Errorf("%s: energy differs across fresh runs: %+v vs %+v",
				spec.Kernel.Name, a.Energy, b.Energy)
		}
	}
}

// TestBaselineIndependentOfHistory pins that a run's energy does not
// depend on which runs its Runner served before. Every needle blocking
// factor is named "needle", so a baseline cache keyed by name alone
// would calibrate needle@64 on needle@16's baseline whenever that ran
// first.
func TestBaselineIndependentOfHistory(t *testing.T) {
	cfg := config.Baseline()
	cfg.CacheBytes *= 2
	k16, k64 := workloads.NeedleKernel(16), workloads.NeedleKernel(64)
	fresh, err := NewRunner().Run(RunSpec{Kernel: k64, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	if _, err := r.Run(RunSpec{Kernel: k16, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	after, err := r.Run(RunSpec{Kernel: k64, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Energy != after.Energy {
		t.Errorf("needle@64 energy depends on run history:\nfresh runner        %+v\nafter needle@16 ran %+v",
			fresh.Energy, after.Energy)
	}
	base, err := r.Baseline(k64)
	if err != nil {
		t.Fatal(err)
	}
	if bf := base.Spec.Kernel.BF; bf != 64 {
		t.Errorf("Baseline(needle@64) ran needle@%d", bf)
	}
}

func mustKernel(t *testing.T, name string) *workloads.Kernel {
	t.Helper()
	k, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return k
}
