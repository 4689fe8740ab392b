package harness

import (
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/workloads"
)

// TestParallelMatchesSerial proves the execution engine never changes
// results: a representative experiment (figure7, a campaign that
// exercises baseline reuse, the §4.5 allocator, and the energy model) is
// regenerated with 1 worker (the exact serial path) and with 8, and both
// the rendered table and the underlying campaign outcomes and baseline
// counters must be identical.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism check skipped in -short mode")
	}
	type outcome struct {
		table    string
		outcomes [][]campaign.Outcome
		counters map[string]int64 // baseline cycles per kernel
	}
	runAt := func(workers int) outcome {
		parallel.SetWorkers(workers)
		defer parallel.SetWorkers(0)
		r := core.NewRunner()
		tab, err := Figure7(r)
		if err != nil {
			t.Fatalf("j=%d: %v", workers, err)
		}
		res, err := execute(r, figure7Spec(r))
		if err != nil {
			t.Fatalf("j=%d: %v", workers, err)
		}
		counters := make(map[string]int64)
		for _, k := range workloads.NoBenefitSet() {
			base, err := r.Baseline(k)
			if err != nil {
				t.Fatalf("j=%d: baseline %s: %v", workers, k.Name, err)
			}
			counters[k.Name] = base.Counters.Cycles
		}
		return outcome{table: tab.String(), outcomes: res.Outcomes, counters: counters}
	}

	// Serial with a cold trace cache, then parallel twice: first against
	// the cache the serial run just filled (hot), then against a freshly
	// flushed cache (cold), where the 8 workers race to build each entry.
	workloads.ResetTraceCache()
	serial := runAt(1)
	parHot := runAt(8)
	workloads.ResetTraceCache()
	parCold := runAt(8)

	for _, par := range []struct {
		label string
		out   outcome
	}{{"hot cache", parHot}, {"cold cache", parCold}} {
		if serial.table != par.out.table {
			t.Errorf("rendered tables differ between -j 1 and -j 8 (%s):\n--- j=1 ---\n%s--- j=8 ---\n%s",
				par.label, serial.table, par.out.table)
		}
		if !reflect.DeepEqual(serial.outcomes, par.out.outcomes) {
			t.Errorf("campaign outcomes differ between -j 1 and -j 8 (%s):\nj=1: %+v\nj=8: %+v",
				par.label, serial.outcomes, par.out.outcomes)
		}
		if !reflect.DeepEqual(serial.counters, par.out.counters) {
			t.Errorf("baseline counters differ between -j 1 and -j 8 (%s):\nj=1: %v\nj=8: %v",
				par.label, serial.counters, par.out.counters)
		}
	}
}

// TestParallelMatchesSerialCounters checks full counter equality (every
// field, not just cycles) for one kernel's baseline produced inside a
// parallel experiment versus a direct serial run.
func TestParallelMatchesSerialCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism check skipped in -short mode")
	}
	k, err := workloads.ByName("vectoradd")
	if err != nil {
		t.Fatal(err)
	}

	parallel.SetWorkers(1)
	serialRunner := core.NewRunner()
	serial, err := serialRunner.Baseline(k)
	parallel.SetWorkers(0)
	if err != nil {
		t.Fatal(err)
	}

	parallel.SetWorkers(8)
	defer parallel.SetWorkers(0)
	parRunner := core.NewRunner()
	if _, err := table1Rows(parRunner, []*workloads.Kernel{k}); err != nil {
		t.Fatal(err)
	}
	par, err := parRunner.Baseline(k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Counters, par.Counters) {
		t.Errorf("counters differ:\nserial: %+v\nparallel: %+v", serial.Counters, par.Counters)
	}
	if serial.Energy.Total() != par.Energy.Total() {
		t.Errorf("energy differs: serial %v, parallel %v", serial.Energy.Total(), par.Energy.Total())
	}
}
