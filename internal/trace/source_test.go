package trace

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/probe"
	"repro/internal/sm"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// designs lists every config.Design; with both scatter variants each
// they are the six bank-model variants.
var designs = []config.Design{config.Partitioned, config.Unified, config.FermiLike}

// TestTablesMatchSource: a recording serves the same outcome tables, in
// every bank-model variant, and the same footprint tables as the live
// trace cache, warp for warp.
func TestTablesMatchSource(t *testing.T) {
	for _, tc := range []struct {
		kernel string
		regs   int
	}{{"needle", 0}, {"bfs", 12}, {"dgemm", 0}} {
		src := &workloads.Source{K: mustKernel(tc.kernel), RegsAvail: tc.regs, Seed: 1}
		rec := Record(src)
		ctas, warps := src.Grid()
		for c := range ctas {
			for w := range warps {
				for _, design := range designs {
					for _, aggressive := range []bool{false, true} {
						got, want := rec.WarpOutcomes(c, w, design, aggressive), src.WarpOutcomes(c, w, design, aggressive)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s -regs %d warp (%d, %d) design %v aggressive %v: recorded outcomes differ from the source's",
								tc.kernel, tc.regs, c, w, design, aggressive)
						}
					}
				}
				if !reflect.DeepEqual(rec.WarpFootprints(c, w), src.WarpFootprints(c, w)) {
					t.Fatalf("%s -regs %d warp (%d, %d): recorded footprints differ from the source's", tc.kernel, tc.regs, c, w)
				}
			}
		}
	}
}

// TestWarpCodeRepeats: a trace built as a literal converts a warp the
// same way on every request, to a program that decodes to the warp, and
// serves no outcome table for a design outside the enum.
func TestWarpCodeRepeats(t *testing.T) {
	built := buildTrace()
	tr := &Trace{CTAs: built.CTAs, WarpsPerCTA: built.WarpsPerCTA, Warps: built.Warps}
	for c := range tr.CTAs {
		for w := range tr.WarpsPerCTA {
			first := tr.WarpCode(c, w)
			if again := tr.WarpCode(c, w); !reflect.DeepEqual(again, first) {
				t.Fatalf("warp (%d, %d): a second WarpCode returned a different program", c, w)
			}
			if !reflect.DeepEqual(first.AppendFlat(nil), tr.WarpTrace(c, w)) {
				t.Fatalf("warp (%d, %d): WarpCode does not decode to the warp", c, w)
			}
		}
	}
	if out := tr.WarpOutcomes(0, 0, config.FermiLike+1, false); out != nil {
		t.Errorf("unknown design served %d outcomes, want none", len(out))
	}
}

// TestConcurrentSMsShareTrace runs 8 SMs at once over one recording,
// probed and unprobed, which under -race checks that a recording and
// the tables it computes are safe to share; every run must match a run
// over the live source.
func TestConcurrentSMsShareTrace(t *testing.T) {
	src := &workloads.Source{K: mustKernel("needle"), Seed: 1}
	run := func(s sm.TraceSource, probed bool) (*stats.Counters, error) {
		spec := sm.Spec{Config: config.MemConfig{Design: config.Unified, RFBytes: 256 << 10, SharedBytes: 64 << 10, CacheBytes: 64 << 10}, Params: sm.DefaultParams(), Source: s, ResidentCTAs: 4}
		if probed {
			spec.Probe = probe.New(0, nil)
		}
		m, err := sm.NewSM(spec)
		if err != nil {
			return nil, err
		}
		return m.Run()
	}
	want, err := run(src, false)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record(src)
	const runs = 8
	got := make([]*stats.Counters, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(rec, i%2 == 1)
		}()
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if *got[i] != *want {
			t.Errorf("run %d: counters over the recording differ from the live source's", i)
		}
	}
}
