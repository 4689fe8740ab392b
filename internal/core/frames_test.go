package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/chip"
	"repro/internal/config"
	"repro/internal/occupancy"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// TestSharedFramesMatchSerial runs a mix of simulations that all draw
// SM frames from the one process-wide free list — runs, warm prefixes,
// forks, their fresh-run comparators and chip runs — over shapes that
// resize every part of a frame: needle and bfs (warp arrays, pending
// tables), the baseline and a 384 KB-cache unified machine (tag
// stores), and a 32-entry MSHR bound. Eight workers run the mix
// concurrently, twice, in two orders; every counter must equal a serial
// pass's.
func TestSharedFramesMatchSerial(t *testing.T) {
	unified := config.Baseline()
	unified.Design = config.Unified
	unified.CacheBytes = 384 << 10
	r := NewRunner()
	bounded := NewRunner()
	bounded.Params.MaxMSHRs = 32
	slower := r.Params
	slower.DRAM.LatencyCycles = 700

	type job struct {
		name string
		run  func() ([]stats.Counters, error)
	}
	var jobs []job
	one := func(res *Result, err error) ([]stats.Counters, error) {
		if err != nil {
			return nil, err
		}
		return []stats.Counters{*res.Counters}, nil
	}
	for _, name := range []string{"needle", "bfs"} {
		k := mustKernel(t, name)
		for _, cfg := range []config.MemConfig{config.Baseline(), unified} {
			spec := RunSpec{Kernel: k, Config: cfg}
			label := fmt.Sprintf("%s under %v", name, cfg)
			resume := slower
			resume.MaxMSHRs = 32
			jobs = append(jobs,
				job{"run " + label, func() ([]stats.Counters, error) { return one(r.Run(spec)) }},
				job{"bounded run " + label, func() ([]stats.Counters, error) { return one(bounded.Run(spec)) }},
				job{"resume " + label, func() ([]stats.Counters, error) {
					w, err := r.Warm(context.Background(), spec, 4000)
					if err != nil {
						return nil, err
					}
					return one(w.Resume(context.Background(), r, resume))
				}},
				job{"exact resume " + label, func() ([]stats.Counters, error) {
					w, err := r.Warm(context.Background(), spec, 4000)
					if err != nil {
						return nil, err
					}
					return one(w.ResumeExact(context.Background(), r, resume))
				}},
				job{"chip " + label, func() ([]stats.Counters, error) {
					occ := occupancy.ComputeShared([]config.KernelRequirements{k.Requirements()}, cfg, nil)[0]
					c, err := chip.New(chip.Config{NumSMs: 2}, cfg, r.Params, chip.Kernel{
						Name:         name,
						Source:       &chip.Replicated{Source: &workloads.Source{K: k, Seed: r.Seed}, Copies: 2},
						ResidentCTAs: occ.CTAs,
					})
					if err != nil {
						return nil, err
					}
					res, err := c.Run()
					if err != nil {
						return nil, err
					}
					var out []stats.Counters
					for _, c := range res.PerSM {
						out = append(out, *c)
					}
					return out, nil
				}},
			)
		}
	}

	want := make([][]stats.Counters, len(jobs))
	for i, j := range jobs {
		var err error
		if want[i], err = j.run(); err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		got := make([][]stats.Counters, len(jobs))
		errs := make([]error, len(jobs))
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					got[i], errs[i] = jobs[i].run()
				}
			}()
		}
		for k := range jobs {
			i := k
			if pass == 1 {
				i = len(jobs) - 1 - k
			}
			next <- i
		}
		close(next)
		wg.Wait()
		for i, j := range jobs {
			if errs[i] != nil {
				t.Errorf("pass %d: %s: %v", pass, j.name, errs[i])
			} else if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("pass %d: %s: counters differ from the serial pass:\ngot  %+v\nwant %+v", pass, j.name, got[i], want[i])
			}
		}
	}
}
