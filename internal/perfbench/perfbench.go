// Package perfbench is the tracked performance baseline of the
// simulator: one measurement core shared by the root benchmarks
// (BenchmarkCycleLoop) and the cmd/bench CLI, which serializes the
// results to BENCH_results.json so regressions show up as a diff
// against the committed numbers rather than as an anecdote.
//
// Two measurements matter:
//
//   - the cycle-loop microbenchmark: steady-state cost of one SM
//     scheduling action (sm.Step) on a hot trace cache, in ns/op and
//     allocs/op. The cycle loop is designed to be allocation-free in
//     steady state; CI gates on allocs/op staying zero.
//   - the end-to-end experiment suite: wall-clock seconds to regenerate
//     each of the paper's tables and figures, sharing one Runner the way
//     cmd/paper does.
package perfbench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/occupancy"
	"repro/internal/parallel"
	"repro/internal/sm"
	"repro/internal/workloads"
)

// CycleLoopKernel is the registry kernel the microbenchmark steps; it
// mixes ALU work, shared-memory traffic, and global loads.
const CycleLoopKernel = "needle"

// CycleLoop holds the steady-state cost of one sm.Step call.
type CycleLoop struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Experiment is the end-to-end wall time of one harness experiment.
type Experiment struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Results is the BENCH_results.json schema.
type Results struct {
	// Timestamp is when the measurement ran (RFC 3339).
	Timestamp string `json:"timestamp"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// Workers is the parallel.Map worker count the suite ran with.
	Workers int `json:"workers"`

	CycleLoop CycleLoop `json:"cycle_loop"`

	Experiments  []Experiment `json:"experiments"`
	SuiteSeconds float64      `json:"suite_seconds"`

	// ForkSweep is the measured snapshot/fork sweep speedup, omitted by
	// the microbenchmark-only path (-skip-suite).
	ForkSweep *ForkSweep `json:"fork_sweep,omitempty"`

	// BaselineSuiteSeconds, when non-zero, is the committed
	// pre-optimization suite time measured on the same machine, and
	// SuiteSpeedup is BaselineSuiteSeconds / SuiteSeconds.
	BaselineSuiteSeconds float64 `json:"baseline_suite_seconds,omitempty"`
	SuiteSpeedup         float64 `json:"suite_speedup,omitempty"`
}

// newCycleLoopSM builds a fresh baseline-configuration SM running the
// microbenchmark kernel.
func newCycleLoopSM() (*sm.SM, error) {
	k, err := workloads.ByName(CycleLoopKernel)
	if err != nil {
		return nil, err
	}
	cfg := config.Baseline()
	occ := occupancy.ComputeShared([]config.KernelRequirements{k.Requirements()}, cfg, nil)[0]
	if occ.CTAs < 1 {
		return nil, fmt.Errorf("perfbench: %s does not fit the baseline configuration", k.Name)
	}
	return sm.NewSM(sm.Spec{
		Config:       cfg,
		Params:       sm.DefaultParams(),
		Source:       &workloads.Source{K: k},
		ResidentCTAs: occ.CTAs,
	})
}

// RunCycleLoop is the shared body of BenchmarkCycleLoop: b.N steady-state
// sm.Step calls on a hot trace cache. SM construction (and
// reconstruction whenever a simulation completes mid-benchmark) happens
// with the timer stopped, so ns/op and allocs/op measure only the cycle
// loop itself.
func RunCycleLoop(b *testing.B) {
	b.ReportAllocs()
	machine, err := newCycleLoopSM()
	if err != nil {
		b.Fatal(err)
	}
	// Warm up with one complete run: every (cta, warp) trace and outcome
	// table is memoized and every lazily-grown scratch buffer has reached
	// its high-water mark before the timer starts.
	if _, err := machine.Run(); err != nil {
		b.Fatal(err)
	}
	if machine, err = newCycleLoopSM(); err != nil {
		b.Fatal(err)
	}
	machine.Start()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if machine.Done() {
			b.StopTimer()
			if machine, err = newCycleLoopSM(); err != nil {
				b.Fatal(err)
			}
			machine.Start()
			b.StartTimer()
		}
		if err := machine.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// MeasureCycleLoop runs the microbenchmark through testing.Benchmark.
func MeasureCycleLoop() CycleLoop {
	r := testing.Benchmark(RunCycleLoop)
	return CycleLoop{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// MeasureExperiments regenerates the named harness experiments (all of
// them when names is empty) end to end, sharing one Runner the way
// cmd/paper does, and returns per-experiment wall times.
func MeasureExperiments(names []string) ([]Experiment, error) {
	if len(names) == 0 {
		names = harness.Experiments
	}
	r := core.NewRunner()
	out := make([]Experiment, 0, len(names))
	for _, name := range names {
		start := time.Now()
		if _, err := harness.Run(r, name); err != nil {
			return nil, fmt.Errorf("perfbench: %s: %w", name, err)
		}
		out = append(out, Experiment{Name: name, Seconds: time.Since(start).Seconds()})
	}
	return out, nil
}

// Collect runs both measurements and assembles a Results.
// baselineSuiteSeconds, when positive, is recorded alongside so the
// speedup over the tracked baseline is part of the artifact.
func Collect(names []string, baselineSuiteSeconds float64) (*Results, error) {
	res := &Results{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Workers:   parallel.Workers(),
		CycleLoop: MeasureCycleLoop(),
	}
	exps, err := MeasureExperiments(names)
	if err != nil {
		return nil, err
	}
	res.Experiments = exps
	for _, e := range exps {
		res.SuiteSeconds += e.Seconds
	}
	if res.ForkSweep, err = MeasureForkSweep(); err != nil {
		return nil, err
	}
	if baselineSuiteSeconds > 0 {
		res.BaselineSuiteSeconds = baselineSuiteSeconds
		if res.SuiteSeconds > 0 {
			res.SuiteSpeedup = baselineSuiteSeconds / res.SuiteSeconds
		}
	}
	return res, nil
}

// ReadBaseline interprets cmd/bench's -baseline argument: either a
// plain number of suite seconds ("37.486") or the path of a previous
// bench artifact (usually the committed BENCH_results.json), whose
// suite_seconds is used. Failures come back with the remedy attached —
// a missing or corrupt file names the path and how to regenerate it —
// rather than as a bare parse error.
func ReadBaseline(arg string) (float64, error) {
	if secs, err := strconv.ParseFloat(arg, 64); err == nil {
		if secs <= 0 {
			return 0, fmt.Errorf("perfbench: baseline seconds must be positive, got %v", secs)
		}
		return secs, nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return 0, fmt.Errorf("perfbench: baseline %q is neither a number of seconds nor a readable bench artifact (%v); "+
			"regenerate one with `bench -o %s` on the reference commit, or pass suite seconds directly (e.g. -baseline 37.5)",
			arg, err, arg)
	}
	var prev Results
	if err := json.Unmarshal(data, &prev); err != nil {
		return 0, fmt.Errorf("perfbench: baseline %q is not a bench artifact (%v); "+
			"regenerate it with `bench -o %s` on the reference commit", arg, err, arg)
	}
	if prev.SuiteSeconds <= 0 {
		return 0, fmt.Errorf("perfbench: baseline %q has no suite_seconds (was it measured with -skip-suite?); "+
			"regenerate it with `bench -o %s` without -skip-suite", arg, arg)
	}
	return prev.SuiteSeconds, nil
}

// Write serializes r as indented JSON to path.
func (r *Results) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
