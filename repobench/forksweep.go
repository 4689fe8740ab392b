package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/sm"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// forkSweep has the shape of `sweep -warm`: each memory-bound kernel's
// prefix is warmed once (core.Runner.Warm) and resumed (Warm.Resume)
// into points along the DRAM-latency, DRAM-bandwidth and MSHR axes, so
// snapshot capture, fork and the memory system under varied timing do
// the work while traces stay hot. Every point's counters must equal
// Warm.ResumeExact for the same point, computed once before the
// measured phase. Every prefix covers the first half of its kernel's
// run; the seed draws the axes' values within fixed strata and orders
// the points, which keeps a pass's cost steady across seeds.
type forkSweep struct {
	e      *env
	r      *core.Runner
	cases  []forkCase
	points []forkPoint // in seeded order

	resumeMS           []float64 // per point, over every pass
	warmCycles, cycles int64     // prefix and full cycles of every resumed point
	bodies             [][]byte  // the first points' counters as JSON
}

// forkCase is one kernel's warm prefix.
type forkCase struct {
	spec   core.RunSpec
	warmAt int64
}

type forkPoint struct {
	kase   int // index into cases
	label  string
	params sm.Params
	want   stats.Counters
}

// forkAxes are the swept axes, the ranges their values are drawn from
// (size.forkPerAxis strata each), and the kernels they sweep; nil sweeps
// every kernel. The MSHR axis sweeps needle, the fork benchmark kernel
// of internal/perfbench, alone: on bfs and mummer any bound makes a
// resumed tail 100 to 300 times slower than an unbounded one (seconds
// per point, whatever the bound, spent in the pending table's eviction
// scan), so a single such point would set the whole pass's wall time.
var forkAxes = []struct {
	name    string
	lo, hi  int64
	kernels []string
	set     func(p *sm.Params, v int64)
}{
	{"dram_latency", 200, 900, nil, func(p *sm.Params, v int64) { p.DRAM.LatencyCycles = v }},
	{"dram_bytes_per_cycle", 4, 16, nil, func(p *sm.Params, v int64) { p.DRAM.BytesPerCycle = int(v) }},
	{"max_mshrs", 32, 256, []string{"needle"}, func(p *sm.Params, v int64) { p.MaxMSHRs = int(v) }},
}

func sweeps(kernels []string, name string) bool {
	if kernels == nil {
		return true
	}
	for _, k := range kernels {
		if k == name {
			return true
		}
	}
	return false
}

func forkKernels(names []string) ([]*workloads.Kernel, error) {
	if names == nil {
		needle, err := workloads.ByName("needle")
		if err != nil {
			return nil, err
		}
		return append(workloads.Categories(workloads.CacheLimited), needle), nil
	}
	ks := make([]*workloads.Kernel, len(names))
	for i, n := range names {
		k, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		ks[i] = k
	}
	return ks, nil
}

// setupForkSweep makes every kernel's traces hot and its energy baseline
// cached with one full run, which also sizes the prefix.
func setupForkSweep(e *env) (instance, error) {
	ks, err := forkKernels(e.size.forkKernels)
	if err != nil {
		return nil, err
	}
	workloads.ResetTraceCache()
	f := &forkSweep{e: e, r: core.NewRunner()}
	full, err := parallel.Map(len(ks), func(i int) (int64, error) {
		res, err := f.r.Run(core.RunSpec{Kernel: ks[i], Config: config.Baseline()})
		if err != nil {
			return 0, err
		}
		return res.Counters.Cycles, nil
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(e.seed, 2))
	for i, k := range ks {
		f.cases = append(f.cases, forkCase{spec: core.RunSpec{Kernel: k, Config: config.Baseline()}, warmAt: full[i] / 2})
		for _, ax := range forkAxes {
			if !sweeps(ax.kernels, k.Name) {
				continue
			}
			n := e.size.forkPerAxis
			width := (ax.hi - ax.lo) / int64(n)
			for s := 0; s < n; s++ {
				v := ax.lo + int64(s)*width + rng.Int64N(width+1)
				p := f.r.Params
				ax.set(&p, v)
				f.points = append(f.points, forkPoint{kase: i, label: fmt.Sprintf("%s %s=%d", k.Name, ax.name, v), params: p})
			}
		}
	}
	rng.Shuffle(len(f.points), func(a, b int) { f.points[a], f.points[b] = f.points[b], f.points[a] })
	return f, nil
}

// warm builds every kernel's prefix.
func (f *forkSweep) warm(parent span) ([]*core.Warm, error) {
	warms := make([]*core.Warm, len(f.cases))
	for i, c := range f.cases {
		sp := parent.child("core.Runner.Warm", c.spec.Kernel.Name)
		w, err := f.r.Warm(context.Background(), c.spec, c.warmAt)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("warm %s: %w", c.spec.Kernel.Name, err)
		}
		warms[i] = w
	}
	return warms, nil
}

// prepare computes every point the exact way: a fresh run of the prefix
// that switches parameters in place at the warm cycle.
func (f *forkSweep) prepare() error {
	warms, err := f.warm(span{})
	if err != nil {
		return err
	}
	want, err := parallel.Map(len(f.points), func(i int) (stats.Counters, error) {
		res, err := warms[f.points[i].kase].ResumeExact(context.Background(), f.r, f.points[i].params)
		if err != nil {
			return stats.Counters{}, err
		}
		return *res.Counters, nil
	})
	if err != nil {
		return err
	}
	for i := range f.points {
		f.points[i].want = want[i]
	}
	return nil
}

type pointResult struct {
	counters *stats.Counters
	err      error
	ms       float64
}

func (f *forkSweep) pass(parent span, w *window) (passResult, error) {
	var res passResult
	var warms []*core.Warm
	var out []pointResult
	var err error
	w.time(func() {
		if warms, err = f.warm(parent); err != nil {
			return
		}
		out, _ = parallel.Map(len(f.points), func(i int) (pointResult, error) {
			pt := &f.points[i]
			sp := parent.child("core.Warm.Resume", pt.label)
			t0 := time.Now()
			r, err := warms[pt.kase].Resume(context.Background(), f.r, pt.params)
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			sp.end()
			if err != nil {
				return pointResult{err: err}, nil
			}
			return pointResult{counters: r.Counters, ms: ms}, nil
		})
	})
	if err != nil {
		return res, err
	}
	for i, pr := range out {
		pt := &f.points[i]
		res.ops++
		switch {
		case pr.err != nil:
			res.failed++
			fmt.Fprintf(f.e.log, "fork-sweep: %s: %v\n", pt.label, pr.err)
			continue
		case *pr.counters != pt.want:
			res.failed++
			fmt.Fprintf(f.e.log, "fork-sweep: %s: forked counters differ from the exact run\n", pt.label)
		}
		res.simCycles += pr.counters.Cycles
		f.cycles += pr.counters.Cycles
		f.warmCycles += warms[pt.kase].Cycle
		f.resumeMS = append(f.resumeMS, pr.ms)
		if len(f.bodies) < 64 {
			body, err := json.Marshal(pr.counters)
			if err != nil {
				return res, err
			}
			f.bodies = append(f.bodies, body)
		}
	}
	return res, nil
}

// report adds the snapshot layer's numbers from the measured phase: they
// describe this workload's own forks, which the component drive would
// only sample.
func (f *forkSweep) report(r *report) error {
	r.add("snapshot.resume_ms", "ms", median(f.resumeMS), len(f.resumeMS))
	r.add("snapshot.reuse_ratio", "ratio", float64(f.warmCycles)/float64(max(f.cycles, 1)), len(f.resumeMS))
	return nil
}

// inputs are the swept kernels on the paper's baseline machine, and the
// points' counters.
func (f *forkSweep) inputs() inputs {
	var in inputs
	for _, c := range f.cases {
		in.runs = append(in.runs, runInput{kernel: c.spec.Kernel, seed: 1, machine: machine.Default()})
	}
	in.bodies = f.bodies
	return in
}

func (f *forkSweep) close() error { return nil }
