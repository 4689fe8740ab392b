package core_test

import (
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/api"
	"repro/internal/campaign"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// The tests in this file check the shape of the paper's comparisons —
// one machine against the partitioned baseline — which run as
// internal/campaign campaigns on a core.Runner.

// paperDesigns executes the committed paper-designs campaign (the
// Figure 7/9/10 designs over the whole registry) on a fresh Runner once
// per test binary; the figure shape tests share it.
var paperDesigns = sync.OnceValues(func() (*campaign.Result, error) {
	c, err := campaign.Load(filepath.Join("..", "..", "examples", "campaigns", "paper-designs.json"))
	if err != nil {
		return nil, err
	}
	return c.Execute(core.NewRunner())
})

// machineIndex returns the index of the named campaign machine.
func machineIndex(t *testing.T, c *campaign.Campaign, name string) int {
	t.Helper()
	for i, m := range c.Spec.Machines {
		if m.Name == name {
			return i
		}
	}
	t.Fatalf("campaign %s has no machine %q", c.Spec.Name, name)
	return -1
}

// comparison is one kernel's outcome under a machine, normalized to the
// campaign baseline the way the paper tables are.
type comparison struct {
	name               string
	perf, energy, dram float64
	rfBytes            int
}

// comparisons returns the named machine's comparisons for the kernels of
// set, in set order.
func comparisons(t *testing.T, res *campaign.Result, machine string, set []*workloads.Kernel) []comparison {
	t.Helper()
	c := res.Campaign
	m := machineIndex(t, c, machine)
	var out []comparison
	for _, k := range set {
		for w, wl := range c.Workloads {
			if wl.Label != k.Name {
				continue
			}
			base, o := res.Outcomes[c.Baseline][w], res.Outcomes[m][w]
			if base.Infeasible || o.Infeasible {
				t.Fatalf("%s under %s: infeasible cell", k.Name, machine)
			}
			out = append(out, comparison{
				name:    k.Name,
				perf:    float64(base.Cycles) / float64(o.Cycles),
				energy:  o.EnergyJ / base.EnergyJ,
				dram:    float64(o.DRAMBytes) / float64(base.DRAMBytes),
				rfBytes: o.Config.RFBytes,
			})
		}
	}
	if len(out) != len(set) {
		t.Fatalf("campaign %s covers %d of %d kernels", c.Spec.Name, len(out), len(set))
	}
	return out
}

// TestFigure9Shape checks the paper's headline result: the benefit set
// gains 4-71% under the 384 KB unified design, needle is the largest
// winner, energy drops, and dgemm alone sees no DRAM reduction.
func TestFigure9Shape(t *testing.T) {
	res, err := paperDesigns()
	if err != nil {
		t.Fatal(err)
	}
	comps := comparisons(t, res, "unified-384k", workloads.BenefitSet())
	if len(comps) != 8 {
		t.Fatalf("benefit set has %d benchmarks, want 8", len(comps))
	}
	best := comparison{}
	for _, c := range comps {
		t.Logf("%-8s perf=%.3f energy=%.3f dram=%.3f", c.name, c.perf, c.energy, c.dram)
		if c.perf < 0.97 {
			t.Errorf("%s: unified slower than baseline (%.3f)", c.name, c.perf)
		}
		if c.perf > 2.2 {
			t.Errorf("%s: implausible speedup %.3f (paper max 1.71)", c.name, c.perf)
		}
		if c.energy > 1.05 {
			t.Errorf("%s: unified raises energy by %.1f%%", c.name, 100*(c.energy-1))
		}
		if c.perf > best.perf {
			best = c
		}
		switch c.name {
		case "dgemm":
			// dgemm gains from threads, not cache: its DRAM traffic must
			// not drop meaningfully (the paper singles it out).
			if c.dram < 0.97 || c.dram > 1.05 {
				t.Errorf("dgemm DRAM ratio = %.3f, want ~1.0 (no reduction)", c.dram)
			}
		case "needle":
		default:
			// Everyone else sees some DRAM reduction (1-32% in the paper).
			if c.dram > 1.01 {
				t.Errorf("%s: DRAM traffic grew under unified (%.3f)", c.name, c.dram)
			}
		}
	}
	if best.name != "needle" {
		t.Errorf("largest winner is %s (%.2fx), want needle", best.name, best.perf)
	}
	if best.perf < 1.4 || best.perf > 2.0 {
		t.Errorf("needle speedup %.2fx outside the paper's ballpark (1.71x)", best.perf)
	}
}

// TestFigure7Shape checks that the no-benefit set is essentially
// unchanged under the unified design (the paper: within ~1%; we allow a
// few percent).
func TestFigure7Shape(t *testing.T) {
	res, err := paperDesigns()
	if err != nil {
		t.Fatal(err)
	}
	comps := comparisons(t, res, "unified-384k", workloads.NoBenefitSet())
	if len(comps) != 18 {
		t.Fatalf("no-benefit set has %d benchmarks, want 18", len(comps))
	}
	for _, c := range comps {
		t.Logf("%-18s perf=%.3f energy=%.3f", c.name, c.perf, c.energy)
		if c.perf < 0.93 || c.perf > 1.10 {
			t.Errorf("%s: |perf change| too large for the no-benefit set: %.3f", c.name, c.perf)
		}
		if c.energy < 0.90 || c.energy > 1.07 {
			t.Errorf("%s: |energy change| too large for the no-benefit set: %.3f", c.name, c.energy)
		}
	}
}

// TestFigure10Shape checks the Fermi-like limited design: it helps, but
// strictly less than full unification on shared-hungry and
// register-hungry workloads.
func TestFigure10Shape(t *testing.T) {
	res, err := paperDesigns()
	if err != nil {
		t.Fatal(err)
	}
	fermi := comparisons(t, res, "fermi-like-384k", workloads.BenefitSet())
	unified := comparisons(t, res, "unified-384k", workloads.BenefitSet())
	for i, f := range fermi {
		t.Logf("%-8s fermi=%.3f unified=%.3f", f.name, f.perf, unified[i].perf)
		if f.perf < 0.9 {
			t.Errorf("%s: Fermi-like design should not badly hurt (%.3f)", f.name, f.perf)
		}
		if f.rfBytes != config.BaselineRFBytes {
			t.Errorf("%s: Fermi-like design must keep the 256KB register file", f.name)
		}
		// needle and dgemm depend on resources Fermi-like flexibility
		// cannot provide enough of; full unification must win clearly.
		if (f.name == "needle" || f.name == "dgemm") && f.perf > unified[i].perf+0.02 {
			t.Errorf("%s: Fermi-like (%.3f) should not beat unified (%.3f)", f.name, f.perf, unified[i].perf)
		}
	}
}

// TestTable6Shape checks capacity sensitivity, as cmd/paper renders it:
// performance is generally maximized at 384 KB, and small capacities
// hurt register- and shared-hungry workloads.
func TestTable6Shape(t *testing.T) {
	tab, err := harness.Table6(core.NewRunner())
	if err != nil {
		t.Fatal(err)
	}
	// rows maps a row label to its perf@128/256/384K and
	// energy@128/256/384K cells; an "n/a" (infeasible) cell reads -1.
	rows := make(map[string][6]float64)
	for _, line := range strings.Split(strings.TrimSpace(tab.CSV()), "\n")[1:] {
		cells := strings.Split(line, ",")
		var row [6]float64
		for i, cell := range cells[1:] {
			row[i] = -1
			if cell != "n/a" {
				if row[i], err = strconv.ParseFloat(cell, 64); err != nil {
					t.Fatalf("%s: %v", line, err)
				}
			}
		}
		rows[cells[0]] = row
		t.Logf("%-22s perf %.2f/%.2f/%.2f energy %.2f/%.2f/%.2f", cells[0], row[0], row[1], row[2], row[3], row[4], row[5])
	}
	for _, name := range []string{"dgemm", "pcr", "ray"} {
		row := rows[name]
		if row[0] > row[2] {
			t.Errorf("%s: 128KB (%v) should not beat 384KB (%v)", name, row[0], row[2])
		}
	}
	avg := rows["average (benefit)"]
	if avg[2] < 1.05 || avg[2] > 1.35 {
		t.Errorf("benefit-set average at 384KB = %.3f, paper reports 1.16", avg[2])
	}
	if avg[1] < avg[0] {
		t.Errorf("benefit-set average should improve 128->256KB: %v", avg[:3])
	}
	fig7 := rows["figure-7 set (average)"]
	if fig7[2] < 0.97 || fig7[2] > 1.05 {
		t.Errorf("figure-7 average at 384KB = %.3f, want ~1.0", fig7[2])
	}
	// The no-benefit set sees its lowest energy at the smallest capacity
	// (less SRAM leakage), one of the paper's Table 6 observations.
	if fig7[3] > fig7[5] {
		t.Errorf("figure-7 energy should be lowest at 128KB: %v", fig7[3:])
	}
}

// TestSeedRobustness checks that the headline conclusion does not depend
// on the random streams driving the divergent gathers: needle's speedup
// is seed-independent (it has no randomness) and the gather-driven
// winners stay winners within a band.
func TestSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short mode")
	}
	names := []string{"needle", "bfs", "ray"}
	var set []*workloads.Kernel
	for _, name := range names {
		k, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		set = append(set, k)
	}
	speedups := make([][]float64, len(names)) // [kernel][seed]
	for _, seed := range []uint64{1, 7, 1234567} {
		c, err := campaign.New(api.CompareRequest{
			Name:      "seeds",
			Machines:  []api.CompareMachine{{Name: "partitioned"}, {Name: "unified-384k", AllocTotalKB: 384}},
			Workloads: names,
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := core.NewRunner()
		r.Seed = seed
		res, err := c.Execute(r)
		if err != nil {
			t.Fatal(err)
		}
		for i, cmp := range comparisons(t, res, "unified-384k", set) {
			speedups[i] = append(speedups[i], cmp.perf)
		}
	}
	for i, name := range names {
		t.Logf("%-8s speedups across seeds: %.3f", name, speedups[i])
		lo, hi := speedups[i][0], speedups[i][0]
		for _, v := range speedups[i][1:] {
			lo, hi = min(lo, v), max(hi, v)
		}
		if hi-lo > 0.12 {
			t.Errorf("%s: speedup varies %.3f..%.3f across seeds; conclusion unstable", name, lo, hi)
		}
		if lo < 1.0 {
			t.Errorf("%s: a seed flipped the conclusion (%.3f)", name, lo)
		}
	}
}

// TestScatterAblation checks the Section 4.2 ablation: the aggressive
// multi-bank-per-cluster design never loses, never adds conflict
// serialization, and its average gain is small (the paper: 0.5%), which
// justified shipping the simple design.
func TestScatterAblation(t *testing.T) {
	spec := api.CompareRequest{
		Name: "scatter",
		Machines: []api.CompareMachine{
			{Name: "simple", AllocTotalKB: 384},
			{Name: "aggressive", AllocTotalKB: 384},
		},
		Workloads: []string{"needle", "aes", "pcr", "vectoradd"},
	}
	spec.Machines[1].Machine.Timing.AggressiveScatter = true
	c, err := campaign.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(core.NewRunner())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for w, wl := range c.Workloads {
		simple, agg := res.Outcomes[0][w], res.Outcomes[1][w]
		speedup := float64(simple.Cycles) / float64(agg.Cycles)
		t.Logf("%-10s speedup=%.4f conflicts %d -> %d", wl.Label, speedup, simple.ConflictCycles, agg.ConflictCycles)
		if speedup < 0.999 {
			t.Errorf("%s: aggressive design lost performance (%.4f)", wl.Label, speedup)
		}
		if agg.ConflictCycles > simple.ConflictCycles {
			t.Errorf("%s: aggressive design increased conflicts", wl.Label)
		}
		sum += speedup
	}
	if avg := sum / float64(len(c.Workloads)); avg > 1.10 {
		t.Errorf("average aggressive-scatter gain %.3f is implausibly large (paper: 1.005)", avg)
	}
	// needle's diagonal scatter is the pattern the aggressive design
	// helps: its conflicts must drop.
	if res.Outcomes[1][0].ConflictCycles >= res.Outcomes[0][0].ConflictCycles {
		t.Error("needle: aggressive design should reduce its diagonal-scatter conflicts")
	}
}
