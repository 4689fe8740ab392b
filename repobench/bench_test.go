package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// smokeSize is the smallest run that still emits every metric.
var smokeSize = size{
	experiments: []string{"table4", "figure8"},
	forkKernels: []string{"vectoradd"},
	forkPerAxis: 1,
	kernels:     []string{"vectoradd", "scalarprod"},
	requests:    40,
	drives:      1,
}

// workloadMetrics are the metrics a workload reports besides the summary
// lists of BENCHMARK.json, with their units.
var workloadMetrics = map[string]map[string]string{
	"paper-suite": {"harness.table4_s": "s", "harness.figure8_s": "s"},
	"fork-sweep":  {"sim_mcycles_per_s": "Mcycles/s"},
	"serve-mix": {
		"rps": "1/s", "run_miss_p50_ms": "ms", "run_miss_p90_ms": "ms",
		"run_hit_p50_us": "us", "run_hit_p99_us": "us", "run_stored_p50_us": "us",
		"batch_p50_ms": "ms", "batch_p90_ms": "ms",
		"serve.lru_hit_ratio": "ratio", "serve.sim_s_per_miss": "s", "serve.overhead_ms_per_miss": "ms",
		"serve.sim_runs_per_miss": "ratio", "serve.rejected": "count",
		"parallel.batch_efficiency": "ratio",
	},
}

type benchmarkMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func names(ms []benchmarkMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// TestBenchmarkFileMatches pins BENCHMARK.json to the workloads and
// summary lists the program reports.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	var ws []string
	for _, w := range bf.Workloads {
		ws = append(ws, w.Name)
	}
	if !reflect.DeepEqual(ws, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", ws, workloadNames())
	}
	if got := names(bf.EndToEnd); !reflect.DeepEqual(got, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", got, endToEndMetrics)
	}
	if got := names(bf.PerLayer); !reflect.DeepEqual(got, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", got, perLayerMetrics)
	}
}

// TestSmoke runs every workload traced at minimal size and checks that
// every metric is emitted with its unit, that no operation failed, and
// that both summary lines carry exactly the listed metrics.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := execute(w, options{seed: 7, seconds: 0.001, traced: true, root: "..",
				out: t.TempDir(), size: smokeSize, log: testLog{t}})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Attempted == 0 || rep.Failed != 0 {
				t.Errorf("attempted %d, failed %d; want some attempted and none failed", rep.Attempted, rep.Failed)
			}
			want := make(map[string]string)
			for _, m := range append(append([]benchmarkMetric(nil), bf.EndToEnd...), bf.PerLayer...) {
				want[m.Name] = m.Unit
			}
			for name, unit := range workloadMetrics[w.name] {
				want[name] = unit
			}
			for name, unit := range want {
				m, ok := rep.get(name)
				if !ok {
					t.Errorf("metric %s not emitted", name)
				} else if m.Unit != unit {
					t.Errorf("metric %s in %q, want %q", name, m.Unit, unit)
				}
			}
			for _, traced := range []bool{false, true} {
				rep.Traced = traced
				var out bytes.Buffer
				if err := rep.print(&out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				var keys []string
				for k := range last {
					keys = append(keys, k)
				}
				if len(keys) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
					t.Errorf("summary keys %v, want correct, attempted, failed, metrics", keys)
				}
				var metrics map[string]summaryValue
				if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				list := bf.EndToEnd
				if traced {
					list = bf.PerLayer
				}
				if len(metrics) != len(list) {
					t.Errorf("traced=%v summary has %d metrics, want %d", traced, len(metrics), len(list))
				}
				for _, m := range list {
					if got, ok := metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v summary metric %s = %+v, want unit %s", traced, m.Name, got, m.Unit)
					}
				}
			}
		})
	}
}

// testLog routes a workload's failure diagnostics into the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// TestCorruptGoldenFails shows that a table differing from its golden
// file counts as a failed operation.
func TestCorruptGoldenFails(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "harness", "testdata", "golden")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range smokeSize.experiments {
		data, err := os.ReadFile(filepath.Join("..", "internal", "harness", "testdata", "golden", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if name == "table4" {
			data = bytes.Replace(data, []byte("1"), []byte("7"), 1)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".txt"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	inst, err := setupPaperSuite(&env{seed: 1, size: smokeSize, root: root, log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.pass(span{}, &window{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ops != 2 || res.failed != 1 {
		t.Errorf("ops %d failed %d, want 2 ops with the corrupted table4 failed", res.ops, res.failed)
	}
}

// TestMismatchedBodyFails shows that a reply whose body differs from the
// body seen before for the same request, or that is not a 200, counts as
// a failed operation.
func TestMismatchedBodyFails(t *testing.T) {
	inst, err := setupServeMix(&env{seed: 1, size: smokeSize, root: "..", scratch: t.TempDir(), log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	s := inst.(*serveMix)
	o := s.gen.run(s.gen.fresh(false), "miss")
	first := s.do(o, span{})
	again := s.do(o, span{})
	if !s.check(first) || !s.check(again) || again.cache != "hit" {
		t.Fatalf("a miss and its repeat (X-Cache %q) should both check out", again.cache)
	}
	tampered := again
	tampered.body = bytes.Replace(again.body, []byte(`"ipc":`), []byte(`"ipc": `), 1)
	if bytes.Equal(tampered.body, again.body) {
		t.Fatal("test body has no ipc field to tamper with")
	}
	if s.check(tampered) {
		t.Error("a body that differs from the first one for its request checked out")
	}
	refused := again
	refused.status = 429
	if s.check(refused) {
		t.Error("a 429 checked out")
	}
}
