package repro_test

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchLedgerShape checks that the committed BENCH_results.json is
// the performance ledger the repository benchmark (repobench/) produces:
// a JSON array of its unmodified reports, combined with
//
//	jq -s . .bench_build/repobench-out/*.json > BENCH_results.json
//
// Every workload BENCHMARK.json declares needs an untraced report with
// no failed operations, stamped with its commit and host, that carries
// every end-to-end metric; and at least one report must be traced, so
// the per-layer numbers are in the ledger too.
func TestBenchLedgerShape(t *testing.T) {
	var decl struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
		} `json:"end_to_end"`
	}
	readJSON(t, "BENCHMARK.json", &decl)
	var reports []struct {
		Workload  string         `json:"workload"`
		Traced    bool           `json:"traced"`
		Commit    string         `json:"commit"`
		Host      map[string]any `json:"host"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	readJSON(t, "BENCH_results.json", &reports)

	untraced := map[string]bool{}
	traced := false
	for i, rep := range reports {
		if rep.Workload == "" || rep.Commit == "" || len(rep.Host) == 0 {
			t.Errorf("report %d (%q): missing workload, commit or host", i, rep.Workload)
		}
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("report %d (%s): %d of %d operations failed", i, rep.Workload, rep.Failed, rep.Attempted)
		}
		if rep.Traced {
			traced = true
			continue
		}
		have := map[string]bool{}
		for _, m := range rep.Metrics {
			have[m.Name] = true
		}
		complete := true
		for _, m := range decl.EndToEnd {
			if !have[m.Name] {
				t.Errorf("report %d (%s): no %s metric", i, rep.Workload, m.Name)
				complete = false
			}
		}
		if complete {
			untraced[rep.Workload] = true
		}
	}
	for _, w := range decl.Workloads {
		if !untraced[w.Name] {
			t.Errorf("no complete untraced %s report", w.Name)
		}
	}
	if !traced {
		t.Error("no traced report: the ledger carries no per-layer metrics")
	}
}

// readJSON decodes the repository file path into v.
func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
