package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// endToEndMetrics are the metrics an untraced run's summary line carries
// and BENCHMARK.json bounds: the ones every workload measures. Metrics
// only one workload has (rps, the serve-mix latency percentiles,
// sim_mcycles_per_s) are printed above the summary and kept in the report
// file.
var endToEndMetrics = []string{"setup_s", "wall_s", "alloc_mb", "heap_mb"}

// perLayerMetrics are the metrics a traced run's summary line carries:
// the component drives every workload replays, plus the tracing overhead.
// The harness.* and serve.* layers and parallel.batch_efficiency exist on
// one workload each and are printed above the summary.
var perLayerMetrics = []string{
	"workloads.trace_build_ms", "workloads.trace_lookup_ns", "workloads.trace_hit_ratio", "workloads.trace_mb",
	"banks.evaluate_ns_per_inst", "banks.replay_ns_per_inst",
	"memsys.load_ns", "memsys.store_ns", "memsys.l1_hit_ratio",
	"dram.read_ns", "dram.row_hit_ratio", "dram.queue_stall_kcycles",
	"sm.step_ns", "sm.allocs_per_step", "sm.steps_per_kcycle", "sm.new_us",
	"sched.twolevel.step_ns", "sched.gto.step_ns",
	"probe.step_ns", "probe.overhead_pct",
	"snapshot.capture_us", "snapshot.fork_us", "snapshot.resume_ms", "snapshot.reuse_ratio",
	"core.run_ms",
	"machine.key_us", "machine.resolve_us",
	"store.get_us", "store.put_us",
	"trace.overhead_pct",
}

// metric is one measured value. N counts the samples behind it; Valid is
// set on percentiles, which need ten samples beyond them.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Valid *bool   `json:"valid,omitempty"`
}

// report is everything one run measured, with the host and source it
// measured on.
type report struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Traced    bool      `json:"traced"`
	Seconds   float64   `json:"seconds"`
	Commit    string    `json:"commit"`
	Host      host      `json:"host"`
	Passes    int       `json:"passes"`
	PassWalls []float64 `json:"pass_walls_s"` // every pass in run order; traced runs alternate untraced and traced
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   []metric  `json:"metrics"`

	spans *tracer
}

func (r *report) add(name, unit string, value float64, n int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit, N: n})
}

// addPercentile adds the q-quantile of xs, scaled into unit.
func (r *report) addPercentile(name, unit string, xs []float64, q, scale float64) {
	v, n, valid := percentile(xs, q)
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v * scale, Unit: unit, N: n, Valid: &valid})
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

// summary picks the run's summary metrics: the end-to-end ones untraced,
// the per-layer ones traced.
func (r *report) summary() (summary, error) {
	names := endToEndMetrics
	if r.Traced {
		names = perLayerMetrics
	}
	s := summary{Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]summaryValue, len(names))}
	for _, name := range names {
		m, ok := r.get(name)
		if !ok {
			return s, fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return s, fmt.Errorf("metric %s is not a number (%v)", name, m.Value)
		}
		s.Metrics[name] = summaryValue{Value: m.Value, Unit: m.Unit}
	}
	return s, nil
}

// print writes every metric as a table line, then the summary line.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s seed %d traced %v: %d passes, %d attempted, %d failed\n",
		r.Workload, r.Seed, r.Traced, r.Passes, r.Attempted, r.Failed)
	for _, m := range r.Metrics {
		note := ""
		if m.N > 0 {
			note = fmt.Sprintf("n=%d", m.N)
		}
		if m.Valid != nil && !*m.Valid {
			note += " (fewer than ten samples beyond this percentile)"
		}
		fmt.Fprintf(w, "%-36s %16.6g %-9s %s\n", m.Name, m.Value, m.Unit, note)
	}
	s, err := r.summary()
	if err != nil {
		return err
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// write stores the report, and the spans of a traced run, under dir.
func (r *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, btoi(r.Traced)))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if r.spans != nil {
		return r.spans.write(base + "-spans.jsonl")
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// host fingerprints the machine a run measured on.
type host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func hostFingerprint() host {
	return host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the processor name Linux reports, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the git revision the binary was stamped with, marked
// "+modified" for a dirty tree, or "unknown" when it was built outside a
// git checkout.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		return rev + "+modified"
	}
	return rev
}
