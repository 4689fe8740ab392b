// Command repobench is the repository benchmark. One invocation sets up
// one workload in-process against the simulator's packages, runs its
// measured phase, checks every output the phase produces, and prints
// every metric by name and unit. The last line of standard output is a
// JSON summary.
//
//	bash repobench/run.sh --workload paper-suite --seed 1 --seconds 30 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced
// run (--trace 1) alternates untraced and traced passes, records spans
// around every call into a layer, then replays the workload's own
// kernels, machines and bodies through each layer's public functions and
// reports the per-layer metrics. Reports and spans are written under
// -out. README.md maps every metric to its layer and to the end-to-end
// metric it should move.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/parallel"
	"repro/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("repobench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fset.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fset.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fset.Int("trace", 0, "0 reports the end-to-end metrics, 1 runs traced and reports the per-layer metrics")
	root := fset.String("root", ".", "repository root, where the golden tables are read")
	out := fset.String("out", "", "directory for reports, spans and scratch files (default <root>/.bench_build/repobench-out)")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || fset.NArg() > 0 {
		fmt.Fprintf(stderr, "repobench: need --workload %s, --seconds > 0 and --trace 0 or 1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	if *out == "" {
		*out = filepath.Join(*root, ".bench_build", "repobench-out")
	}
	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1, root: *root, out: *out, size: fullSize, log: stderr}
	rep, err := execute(w, o)
	if err == nil {
		err = rep.write(o.out)
	}
	if err == nil {
		err = rep.print(stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "repobench: %s: %v\n", *name, err)
		return 1
	}
	return 0
}

// options are one run's settings.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
	root    string // repository root
	out     string // reports, spans and scratch directories
	size    size
	log     io.Writer // diagnostics, one line per failed operation
}

// size scales the workloads: fullSize measures, smokeSize is the
// smallest run that still emits every metric (the package tests use it).
type size struct {
	experiments []string // paper-suite experiments; nil runs all of harness.Experiments
	forkKernels []string // fork-sweep kernels; nil runs the cache-limited tier plus needle
	forkPerAxis int      // fork-sweep points per parameter axis
	kernels     []string // serve-mix kernels; nil draws from the whole registry
	requests    int      // serve-mix requests per pass
	drives      int      // most inputs one component drive replays
}

var fullSize = size{forkPerAxis: 10, requests: 300, drives: 6}

// setupRuns is how often a run sets its workload up; setup_s is the
// median.
const setupRuns = 3

// workload is one benchmark input set. setup builds a ready instance
// from the seed; it is timed, and repeated setupRuns times.
type workload struct {
	name  string
	setup func(e *env) (instance, error)
}

// env is what a workload is set up from.
type env struct {
	seed    uint64
	size    size
	root    string
	scratch string // a directory inside the output directory, removed after the run
	log     io.Writer
}

// instance is a set-up workload.
type instance interface {
	// prepare computes the references the outputs are checked against;
	// it runs once, after the last setup.
	prepare() error
	// pass runs one pass of the measured phase and checks its outputs.
	// It wraps its calls into the program, and nothing else, in w.time:
	// generating inputs and checking outputs stay outside the window.
	pass(parent span, w *window) (passResult, error)
	// report adds the workload's own metrics, over every pass so far.
	report(r *report) error
	// inputs are the kernels, machines and bodies the component drives
	// replay.
	inputs() inputs
	close() error
}

// passResult counts one pass's operations. simCycles is the simulated
// cycles the pass's operations covered, when the workload knows them.
type passResult struct {
	ops, failed int
	simCycles   int64
}

var allWorkloads = []workload{
	{name: "paper-suite", setup: setupPaperSuite},
	{name: "fork-sweep", setup: setupForkSweep},
	{name: "serve-mix", setup: setupServeMix},
}

func workloadNames() []string {
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// execute sets the workload up, runs its measured phase and, traced,
// the component drives.
func execute(w workload, o options) (rep *report, err error) {
	parallel.SetWorkers(runtime.NumCPU())
	rep = &report{Workload: w.name, Seed: o.seed, Traced: o.traced, Seconds: o.seconds,
		Commit: commit(), Host: hostFingerprint()}
	if o.traced {
		rep.spans = newTracer()
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.out, "scratch-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(scratch); err == nil {
			err = rerr
		}
	}()
	e := &env{seed: o.seed, size: o.size, root: o.root, scratch: scratch, log: o.log}

	var inst instance
	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		sp := rep.spans.root("setup", w.name)
		t0 := time.Now()
		inst, err = w.setup(e)
		setups = append(setups, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	defer func() {
		if cerr := inst.close(); err == nil {
			err = cerr
		}
	}()
	rep.add("setup_s", "s", median(setups), len(setups))
	if err := inst.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	if err := measure(inst, o, rep); err != nil {
		return nil, err
	}
	if err := inst.report(rep); err != nil {
		return nil, err
	}
	if o.traced {
		if err := drive(inst.inputs(), o.size.drives, scratch, rep); err != nil {
			return nil, fmt.Errorf("component drives: %w", err)
		}
	}
	return rep, nil
}

// passStats is one measured pass. took is the whole pass, checks
// included; wall and allocMB cover only its window.
type passStats struct {
	took, wall, allocMB, heapMB float64
	passResult
}

// window measures a pass's calls into the program: the wall time and the
// bytes allocated inside the functions handed to time.
type window struct {
	wall  time.Duration
	alloc uint64
}

func (w *window) time(f func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	f()
	w.wall += time.Since(t0)
	runtime.ReadMemStats(&after)
	w.alloc += after.TotalAlloc - before.TotalAlloc
}

// measure runs passes until the phase has used its seconds. A pass
// starts only while the elapsed time plus the median whole pass so far
// fits the budget, so the phase ends near the budget instead of
// overrunning it by a pass; at least one pass runs, and a traced run
// alternates untraced and traced passes with at least one of each.
func measure(inst instance, o options, rep *report) error {
	lookups0 := workloads.TraceCacheSnapshot()
	var plain, traced []passStats
	var walls, took []float64
	start := time.Now()
	for i := 0; ; i++ {
		var tr *tracer
		if o.traced && i%2 == 1 {
			tr = rep.spans
		}
		ps, err := measurePass(inst, tr)
		if err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		if tr != nil {
			traced = append(traced, ps)
		} else {
			plain = append(plain, ps)
		}
		rep.Attempted += int64(ps.ops)
		rep.Failed += int64(ps.failed)
		walls = append(walls, ps.wall)
		took = append(took, ps.took)
		enough := len(plain) > 0 && (!o.traced || len(traced) > 0)
		if enough && time.Since(start).Seconds()+median(took) > o.seconds {
			break
		}
	}
	rep.Passes, rep.PassWalls = len(walls), walls
	lookups := workloads.TraceCacheSnapshot()

	var wall, alloc, heap, cycles []float64
	for _, ps := range plain {
		wall = append(wall, ps.wall)
		alloc = append(alloc, ps.allocMB)
		heap = append(heap, ps.heapMB)
		if ps.simCycles > 0 {
			cycles = append(cycles, float64(ps.simCycles)/ps.wall/1e6)
		}
	}
	rep.add("wall_s", "s", median(wall), len(wall))
	rep.add("alloc_mb", "MB", median(alloc), len(alloc))
	rep.add("heap_mb", "MB", median(heap), len(heap))
	if len(cycles) > 0 {
		rep.add("sim_mcycles_per_s", "Mcycles/s", median(cycles), len(cycles))
	}
	if o.traced {
		tw := make([]float64, len(traced))
		for i, ps := range traced {
			tw[i] = ps.wall
		}
		// The run's first pass also pays for growing the heap, so the
		// traced passes are set against the later untraced ones.
		uw := wall
		if len(wall) > 1 {
			uw = wall[1:]
		}
		rep.add("trace.overhead_pct", "%", (median(tw)/median(uw)-1)*100, len(tw))
		n := lookups.Lookups - lookups0.Lookups
		hits := float64(n - (lookups.Builds - lookups0.Builds))
		rep.add("workloads.trace_hit_ratio", "ratio", hits/float64(max(n, 1)), int(n))
		rep.add("workloads.trace_mb", "MB", float64(lookups.Bytes)/1e6, 0)
	}
	return nil
}

// measurePass runs one pass from a collected heap. It reports the wall
// time and the bytes allocated inside the pass's window, and the live heap
// after a forced collection at the pass's end.
func measurePass(inst instance, tr *tracer) (passStats, error) {
	var w window
	var after runtime.MemStats
	runtime.GC()
	sp := tr.root("pass", "")
	t0 := time.Now()
	res, err := inst.pass(sp, &w)
	took := time.Since(t0).Seconds()
	sp.end()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return passStats{took: took, wall: w.wall.Seconds(), allocMB: float64(w.alloc) / 1e6,
		heapMB: float64(after.HeapAlloc) / 1e6, passResult: res}, err
}
