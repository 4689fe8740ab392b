package campaign

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/api"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/workloads"
)

// renderAll joins every table of a result, the way cmd/compare prints
// them.
func renderAll(res *Result) string {
	var b strings.Builder
	for i, t := range res.Tables() {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t.String())
	}
	return b.String()
}

// TestExecuteDeterministicAcrossWorkers pins the campaign's parallel
// fan-out: rendered output is byte-identical for every worker count.
func TestExecuteDeterministicAcrossWorkers(t *testing.T) {
	spec := minSpec()
	spec.Tables = []api.CompareTable{{Machine: "uni"}}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer parallel.SetWorkers(parallel.Workers())

	parallel.SetWorkers(1)
	serial, err := c.Execute(core.NewRunner())
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetWorkers(8)
	fanned, err := c.Execute(core.NewRunner())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderAll(serial), renderAll(fanned); a != b {
		t.Errorf("output differs between -j 1 and -j 8:\n--- j=1 ---\n%s--- j=8 ---\n%s", a, b)
	}
}

// TestExecuteInfeasibleCell checks that a machine too small for a
// workload settles as an infeasible cell, not an error — and renders as
// such.
func TestExecuteInfeasibleCell(t *testing.T) {
	spec := minSpec()
	spec.Workloads = []string{"sto"}
	spec.Machines[1] = api.CompareMachine{Name: "tiny"}
	spec.Machines[1].Machine.RFKB = 4
	spec.Machines[1].Machine.SharedKB = 1
	spec.Machines[1].Machine.CacheKB = 1
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(core.NewRunner())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcomes[1][0].Infeasible {
		t.Fatalf("4KB register file should not fit sto: %+v", res.Outcomes[1][0])
	}
	if res.Outcomes[0][0].Infeasible {
		t.Fatal("baseline should be feasible")
	}
	out := renderAll(res)
	if !strings.Contains(out, "infeasible") {
		t.Errorf("rendered output should mark the infeasible cell:\n%s", out)
	}
}

// TestRegressionFlagging synthesizes outcomes to pin threshold logic:
// worse-than-threshold deltas are flagged in the table and listed by
// Regressions, in both metric directions.
func TestRegressionFlagging(t *testing.T) {
	spec := minSpec()
	spec.Workloads = []string{"vectoradd"}
	spec.Metrics = []string{"ipc", "energy"}
	spec.Thresholds = map[string]float64{"ipc": 5, "energy": 5}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Campaign: c, Outcomes: [][]Outcome{
		{{Threads: 1024, Cycles: 1000, IPC: 10, EnergyJ: 1.0}},
		// IPC 10% below baseline (bad for higher-better), energy 10%
		// above (bad for lower-better): both cross the 5% thresholds.
		{{Threads: 1024, Cycles: 1100, IPC: 9, EnergyJ: 1.1}},
	}}
	regs := res.Regressions()
	if len(regs) != 2 {
		t.Fatalf("Regressions() = %+v, want ipc and energy", regs)
	}
	if regs[0].Metric != "ipc" || regs[0].Machine != "uni" || regs[0].DeltaPct > -9.9 {
		t.Errorf("ipc regression = %+v", regs[0])
	}
	if regs[1].Metric != "energy" || regs[1].DeltaPct < 9.9 {
		t.Errorf("energy regression = %+v", regs[1])
	}
	out := renderAll(res)
	if strings.Count(out, "!") != 2 {
		t.Errorf("want exactly the two regressions flagged:\n%s", out)
	}

	// Improvements in each metric's good direction must not flag.
	res.Outcomes[1][0] = Outcome{Threads: 1024, Cycles: 900, IPC: 11, EnergyJ: 0.9}
	if regs := res.Regressions(); len(regs) != 0 {
		t.Errorf("improvements flagged as regressions: %+v", regs)
	}
}

// TestInfeasibleBaselineDelta: cells without a feasible baseline render
// "-" deltas and never count as regressions.
func TestInfeasibleBaselineDelta(t *testing.T) {
	spec := minSpec()
	spec.Workloads = []string{"vectoradd"}
	spec.Metrics = []string{"ipc"}
	spec.Thresholds = map[string]float64{"ipc": 5}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Campaign: c, Outcomes: [][]Outcome{
		{{Infeasible: true}},
		{{Threads: 1024, Cycles: 1100, IPC: 9, EnergyJ: 1.1}},
	}}
	if regs := res.Regressions(); len(regs) != 0 {
		t.Errorf("infeasible baseline produced regressions: %+v", regs)
	}
	out := renderAll(res)
	if !strings.Contains(out, "infeasible") || strings.Contains(out, "!") {
		t.Errorf("infeasible baseline should render without flags:\n%s", out)
	}
}

// TestPaperDesignsCampaignReproducesGoldens is the tentpole acceptance
// check: the committed paper-designs campaign's three paper-style
// tables are byte-identical to the harness golden files for Figures 7,
// 9, and 10.
func TestPaperDesignsCampaignReproducesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign execution skipped in -short mode")
	}
	c, err := Load(filepath.Join("..", "..", "examples", "campaigns", "paper-designs.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(core.NewRunner())
	if err != nil {
		t.Fatal(err)
	}
	tables := res.Tables()
	// Three metric diff tables first, then the three paper tables.
	if len(tables) != 6 {
		t.Fatalf("campaign rendered %d tables, want 6", len(tables))
	}
	for i, name := range []string{"figure7", "figure9", "figure10"} {
		golden := filepath.Join("..", "harness", "testdata", "golden", name+".txt")
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := tables[3+i].String(); got != string(want) {
			t.Errorf("%s: campaign table diverged from %s\n--- got ---\n%s--- want ---\n%s",
				name, golden, got, want)
		}
	}
}

// TestCommittedCampaignsParse keeps every committed example campaign
// loadable.
func TestCommittedCampaignsParse(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "campaigns")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		n++
		if _, err := Load(filepath.Join(dir, e.Name())); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
	}
	if n == 0 {
		t.Fatal("no committed campaigns found")
	}
}

// TestExecuteReusesRunnerBaselines pins the two Execute rules. With the
// caller's baselines computed, a campaign of the baseline machine and a
// unified machine under the same parameters must launch exactly one
// grid per unified cell: baseline cells read Runner.Baseline, and
// unified cells run on the caller's Runner, whose memoized baselines
// calibrate their energy. Any re-simulation would launch warps, and each
// launched warp is one trace-cache lookup. The machines spell the
// scheduler "twolevel" where core.NewRunner leaves it zero, so the
// parameters must match in canonical form.
func TestExecuteReusesRunnerBaselines(t *testing.T) {
	r := core.NewRunner()
	names := []string{"vectoradd", "needle"}
	want := int64(0)
	for _, name := range names {
		k, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Baseline(k); err != nil {
			t.Fatal(err)
		}
		want += int64(k.GridCTAs * k.WarpsPerCTA())
	}
	spec := minSpec()
	spec.Workloads = names
	spec.Machines[0].Machine.Timing.Scheduler = "twolevel"
	spec.Machines[1].Machine.Timing.Scheduler = "twolevel"
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	before := workloads.TraceCacheSnapshot()
	if _, err := c.Execute(r); err != nil {
		t.Fatal(err)
	}
	if got := workloads.TraceCacheSnapshot().Lookups - before.Lookups; got != want {
		t.Errorf("campaign made %d trace-cache lookups, want %d (one grid per unified cell, none for baseline cells)", got, want)
	}
}

// execFile loads a committed example campaign and executes it on a fresh
// Runner.
func execFile(name string) (*Result, error) {
	c, err := Load(filepath.Join("..", "..", "examples", "campaigns", name))
	if err != nil {
		return nil, err
	}
	return c.Execute(core.NewRunner())
}

// machineIndex returns the index of the named campaign machine.
func machineIndex(t *testing.T, c *Campaign, name string) int {
	t.Helper()
	for i, m := range c.Spec.Machines {
		if m.Name == name {
			return i
		}
	}
	t.Fatalf("campaign %s has no machine %q", c.Spec.Name, name)
	return -1
}

// TestWritePolicyCampaign checks examples/campaigns/write-policy.json, the
// Section 4.3/4.4 ablation: for these write-once streaming workloads a
// write-back cache buys little or nothing over the paper's
// write-through design. (internal/core's TestWriteBackLeavesDirtyLines
// checks the flush a write-back design would owe at repartitioning.)
func TestWritePolicyCampaign(t *testing.T) {
	res, err := execFile("write-policy.json")
	if err != nil {
		t.Fatal(err)
	}
	c := res.Campaign
	wt, wb := machineIndex(t, c, "write-through"), machineIndex(t, c, "write-back")
	for w, wl := range c.Workloads {
		through, back := res.Outcomes[wt][w], res.Outcomes[wb][w]
		perf := float64(through.Cycles) / float64(back.Cycles)
		t.Logf("%-10s perf=%.3f dram=%.3f", wl.Label, perf, float64(back.DRAMBytes)/float64(through.DRAMBytes))
		if perf > 1.3 {
			t.Errorf("%s: write-back cannot plausibly be %.2fx faster for write-once streams", wl.Label, perf)
		}
	}
}

// TestActiveSetCampaign checks examples/campaigns/active-set.json: the
// two-level scheduler's active set of 8 warps (the prior work's choice)
// performs within a few percent of a flat 32-warp scheduler. The active
// set restricts issue candidates, not residency, so 8 suffices once
// long-latency waiters are swapped out.
func TestActiveSetCampaign(t *testing.T) {
	res, err := execFile("active-set.json")
	if err != nil {
		t.Fatal(err)
	}
	c := res.Campaign
	sizes := []string{"active-4", "active-8", "active-16", "active-32"}
	for w, wl := range c.Workloads {
		cycles := make([]int64, len(sizes))
		for i, name := range sizes {
			cycles[i] = res.Outcomes[machineIndex(t, c, name)][w].Cycles
		}
		t.Logf("%-10s active=4:%d 8:%d 16:%d 32:%d", wl.Label, cycles[0], cycles[1], cycles[2], cycles[3])
		if c8, c32 := float64(cycles[1]), float64(cycles[3]); c8 > 1.10*c32 {
			t.Errorf("%s: 8 active warps loses %.1f%% to a flat scheduler — the two-level design should be near-free",
				wl.Label, 100*(c8/c32-1))
		}
	}
}
