// Package harness regenerates every table and figure of the paper as a
// rendered text table. It is the shared engine behind cmd/paper, smserve's
// /v1/experiment and the repository benchmark. Each experiment runs on the
// caller's core.Runner and formats its output with the same rows and
// series the paper reports. Every experiment that simulates machines,
// except the chip validation, runs its cells through internal/campaign
// under the Runner's parameters and renders from campaign.Outcome: the
// comparisons against a baseline machine (figure7, figure9, figure10,
// table5, table6, ablation, multitenant) as campaigns, and Table 1's
// DRAM columns and the capacity sweeps (figure2, figure3, figure4,
// figure11) as flat cell lists (sweeps.go). Figure 8, Table 4 and the
// validation come from internal/core.
package harness

import (
	"fmt"
	"math"
	"strings"

	"repro/api"
	"repro/internal/campaign"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Experiment names accepted by Run.
var Experiments = []string{
	"table1", "figure2", "figure3", "figure4", "table4", "table5",
	"figure7", "figure8", "figure9", "figure10", "table6", "figure11",
	"validation", "ablation", "multitenant",
}

// Run regenerates one experiment by name.
func Run(r *core.Runner, name string) (*report.Table, error) {
	switch name {
	case "table1":
		return Table1(r)
	case "figure2":
		return Figure2(r)
	case "figure3":
		return Figure3(r)
	case "figure4":
		return Figure4(r)
	case "table4":
		return Table4(), nil
	case "table5":
		return Table5(r)
	case "figure7":
		return Figure7(r)
	case "figure8":
		return Figure8(r)
	case "figure9":
		return Figure9(r)
	case "figure10":
		return Figure10(r)
	case "table6":
		return Table6(r)
	case "figure11":
		return Figure11(r)
	case "validation":
		return Validation(r)
	case "ablation":
		return Ablation(r)
	case "multitenant":
		return Multitenant(r)
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (have %s)",
		name, strings.Join(Experiments, ", "))
}

// Table4 renders SRAM bank access energies.
func Table4() *report.Table {
	t := report.NewTable("Table 4: energy per 16-byte SRAM bank access (32nm)",
		"structure", "bank size", "read (pJ)", "write (pJ)")
	for _, row := range core.Table4() {
		t.AddRow(row.Structure, fmt.Sprintf("%dK", row.BankKB),
			fmt.Sprintf("%.1f", row.ReadPJ), fmt.Sprintf("%.1f", row.WritePJ))
	}
	return t
}

// The comparison experiments (figure7, figure9, figure10, table5,
// table6, ablation and multitenant) run as compare campaigns on r.
// Every machine takes its timing and energy from r, and the campaign's
// seed is r's, so they render under the caller's parameters (-sched
// gto, smserve's /v1/experiment); cells that match r run on it and
// reuse its baseline runs (campaign.RunCells).

// paperMachine is the partitioned baseline machine under r's timing and
// energy parameters.
func paperMachine(r *core.Runner) machine.Description {
	return machine.Describe(config.Baseline(), r.Params, r.Energy.P)
}

// execute validates a campaign spec and executes it on r under r's seed.
func execute(r *core.Runner, spec api.CompareRequest) (*campaign.Result, error) {
	spec.Seed = r.Seed
	c, err := campaign.New(spec)
	if err != nil {
		return nil, err
	}
	return c.Execute(r)
}

// unified384 and fermi384 are the paper's two flexible designs at the
// baseline's 384 KB total capacity.
var (
	unified384 = api.CompareMachine{Name: "unified-384k", AllocTotalKB: config.BaselineTotalBytes >> 10}
	fermi384   = api.CompareMachine{Name: "fermi-like-384k", FermiTotalKB: config.BaselineTotalBytes >> 10}
)

// comparisonSpec is the campaign of one design against the partitioned
// baseline over a workload set, with one paper table of the design.
func comparisonSpec(r *core.Runner, title, set string, design api.CompareMachine) api.CompareRequest {
	design.Machine = paperMachine(r)
	return api.CompareRequest{
		Name:      "comparison",
		Machines:  []api.CompareMachine{{Name: "partitioned", Machine: design.Machine}, design},
		Workloads: []string{set},
		Tables:    []api.CompareTable{{Title: title, Machine: design.Name}},
	}
}

// figure7Spec compares the 384 KB unified design against the
// equal-capacity partitioned baseline for the no-benefit set; the
// paper's result is that every change stays within about 1%.
func figure7Spec(r *core.Runner) api.CompareRequest {
	return comparisonSpec(r, "Figure 7: unified (384KB) vs partitioned, applications with no benefit", "no-benefit", unified384)
}

// comparison executes a comparisonSpec and renders its paper table.
func comparison(r *core.Runner, spec api.CompareRequest) (*report.Table, error) {
	res, err := execute(r, spec)
	if err != nil {
		return nil, err
	}
	return res.PaperTables()[0], nil
}

// Figure7 renders the no-benefit comparison.
func Figure7(r *core.Runner) (*report.Table, error) {
	return comparison(r, figure7Spec(r))
}

// table5Fractions folds Figure 7's cells into the Table 5 rows of the
// partitioned and unified designs: the per-instruction
// maximum-bank-accesses histogram over the no-benefit set, weighting
// benchmarks equally as the paper averages.
func table5Fractions(r *core.Runner) ([2][stats.ConflictBuckets]float64, error) {
	var out [2][stats.ConflictBuckets]float64
	res, err := execute(r, figure7Spec(r))
	if err != nil {
		return out, err
	}
	for m := range out {
		var agg stats.Counters
		for w, o := range res.Outcomes[m] {
			if o.Infeasible {
				return out, fmt.Errorf("table5: %s is infeasible under %s",
					res.Campaign.Workloads[w].Label, res.Campaign.Spec.Machines[m].Name)
			}
			kernel := stats.Counters{ConflictHist: o.ConflictHist}
			for b, frac := range kernel.ConflictFractions() {
				agg.ConflictHist[b] += int64(frac * 1e6)
			}
		}
		out[m] = agg.ConflictFractions()
	}
	return out, nil
}

// Table5 renders the bank-conflict breakdown.
func Table5(r *core.Runner) (*report.Table, error) {
	fracs, err := table5Fractions(r)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 5: warp instructions by max accesses to a single bank (Figure 7 benchmarks)",
		"design", "<=1", "2", "3", "4", ">4")
	for m, design := range []config.Design{config.Partitioned, config.Unified} {
		f := fracs[m]
		t.AddRow(design.String(), report.Percent(f[0]), report.Percent(f[1]),
			report.Percent(f[2]), report.Percent(f[3]), report.Percent(f[4]))
	}
	return t, nil
}

// Figure8 renders the chosen unified partitionings.
func Figure8(r *core.Runner) (*report.Table, error) {
	rows, err := r.Figure8()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 8: unified memory allocation chosen per benchmark (384KB)",
		"benchmark", "rf", "shared", "cache", "threads")
	for _, row := range rows {
		t.AddRow(row.Benchmark, fmt.Sprintf("%dK", row.RFKB), fmt.Sprintf("%dK", row.SharedKB),
			fmt.Sprintf("%dK", row.CacheKB), fmt.Sprint(row.Threads))
	}
	return t, nil
}

// Figure9 renders the same comparison for the benefit set (gains of
// 4-71%).
func Figure9(r *core.Runner) (*report.Table, error) {
	return comparison(r, comparisonSpec(r, "Figure 9: unified (384KB) vs partitioned, applications that benefit", "benefit", unified384))
}

// Figure10 renders the Fermi-like limited-flexibility comparison for the
// benefit set.
func Figure10(r *core.Runner) (*report.Table, error) {
	return comparison(r, comparisonSpec(r, "Figure 10: Fermi-like limited design (384KB) vs partitioned", "benefit", fermi384))
}

// table6KB are the unified-memory capacities of Table 6.
var table6KB = []int{128, 256, 384}

// Table6 renders unified-memory capacity sensitivity for the benefit set
// plus an average row each for the benefit and Figure 7 sets, normalized
// to the baseline partitioned design. Every (kernel, capacity) cell runs
// once as one campaign; the average rows fold the per-kernel cells,
// their geomean products in kernel order.
func Table6(r *core.Runner) (*report.Table, error) {
	base := paperMachine(r)
	machines := []api.CompareMachine{{Name: "partitioned", Machine: base}}
	for _, kb := range table6KB {
		machines = append(machines, api.CompareMachine{Name: fmt.Sprintf("unified-%dk", kb), Machine: base, AllocTotalKB: kb})
	}
	res, err := execute(r, api.CompareRequest{Name: "table6", Machines: machines, Workloads: []string{"benefit", "no-benefit"}})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 6: unified capacity sensitivity (normalized to baseline partitioned)",
		"benchmark", "perf@128K", "perf@256K", "perf@384K", "energy@128K", "energy@256K", "energy@384K")
	// row folds the cells of workloads [from, to) into one row; a
	// capacity some kernel of the row cannot fit reads "n/a".
	row := func(label string, from, to int) {
		perf := make([]string, len(table6KB))
		energy := make([]string, len(table6KB))
		for i := range table6KB {
			perfProd, energyProd, n := 1.0, 1.0, 0
			infeasible := false
			for w := from; w < to; w++ {
				b, o := res.Outcomes[0][w], res.Outcomes[1+i][w]
				if b.Infeasible || o.Infeasible {
					infeasible = true
					continue
				}
				perfProd *= float64(b.Cycles) / float64(o.Cycles)
				energyProd *= o.EnergyJ / b.EnergyJ
				n++
			}
			perf[i], energy[i] = "n/a", "n/a"
			if !infeasible {
				perf[i] = report.Ratio(math.Pow(perfProd, 1/float64(n)))
				energy[i] = report.Ratio(math.Pow(energyProd, 1/float64(n)))
			}
		}
		t.AddRow(append(append([]string{label}, perf...), energy...)...)
	}
	ws := res.Campaign.Workloads
	nb := len(workloads.BenefitSet())
	for w := 0; w < nb; w++ {
		row(ws[w].Label, w, w+1)
	}
	row("average (benefit)", 0, nb)
	row("figure-7 set (average)", nb, len(ws))
	return t, nil
}

// ValidationBenchmarks are the kernels used for the Section 5.1
// methodology check (a spread of memory behaviours; the full registry
// would take minutes on a multi-SM chip).
var ValidationBenchmarks = []string{"vectoradd", "needle", "pcr", "sto", "hotspot"}

// ValidationSMs is the chip size used for the methodology check.
const ValidationSMs = 4

// Validation renders the single-SM-vs-chip methodology comparison.
func Validation(r *core.Runner) (*report.Table, error) {
	var kernels []*workloads.Kernel
	for _, name := range ValidationBenchmarks {
		k, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		kernels = append(kernels, k)
	}
	rows, err := r.ValidateMethodology(kernels, ValidationSMs)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Methodology validation (§5.1): single-SM simulation vs %d-SM chip with shared DRAM", ValidationSMs),
		"benchmark", "single-SM cycles", "chip mean cycles", "deviation")
	for _, row := range rows {
		t.AddRow(row.Benchmark, fmt.Sprint(row.SingleSMCycles),
			fmt.Sprintf("%.0f", row.ChipMeanCycles), report.Percent(row.Deviation))
	}
	return t, nil
}

// Ablation renders the Section 4.2 comparison over the full registry:
// the simple single-bank-per-cluster unified design against the
// aggressive multi-bank-per-cluster variant, each under its §4.5
// allocation of 384 KB. The speedup is simple cycles over aggressive
// cycles.
func Ablation(r *core.Runner) (*report.Table, error) {
	simple := paperMachine(r)
	simple.Timing.AggressiveScatter = false
	aggressive := simple
	aggressive.Timing.AggressiveScatter = true
	total := config.BaselineTotalBytes >> 10
	res, err := execute(r, api.CompareRequest{
		Name: "ablation",
		Machines: []api.CompareMachine{
			{Name: "simple", Machine: simple, AllocTotalKB: total},
			{Name: "aggressive", Machine: aggressive, AllocTotalKB: total},
		},
		Workloads: []string{"all"},
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		"Ablation (§4.2): aggressive multi-bank scatter/gather vs simple unified design",
		"benchmark", "speedup", "conflict cycles (simple)", "conflict cycles (aggressive)")
	for w, wl := range res.Campaign.Workloads {
		simple, agg := res.Outcomes[0][w], res.Outcomes[1][w]
		if simple.Infeasible || agg.Infeasible {
			t.AddRow(wl.Label, "infeasible", "-", "-")
			continue
		}
		t.AddRow(wl.Label, fmt.Sprintf("%.4f", float64(simple.Cycles)/float64(agg.Cycles)),
			fmt.Sprint(simple.ConflictCycles), fmt.Sprint(agg.ConflictCycles))
	}
	return t, nil
}

// Multitenant renders the concurrent-kernel co-tenancy study: every
// adjacent registry pair and quad runs as one multi-tenant mix under
// the three designs, with the partitioned baseline as the 1.00
// reference. Unified and Fermi capacities partition the baseline's
// 384 KB jointly for the whole mix; a mix a design cannot make
// co-resident reads "infeasible".
func Multitenant(r *core.Runner) (*report.Table, error) {
	base := paperMachine(r)
	uni, fermi := unified384, fermi384
	uni.Machine, fermi.Machine = base, base
	res, err := execute(r, api.CompareRequest{
		Name:      "multitenant",
		Machines:  []api.CompareMachine{{Name: "partitioned", Machine: base}, uni, fermi},
		Workloads: multitenantMixes(workloads.All()),
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		"Multi-tenant co-tenancy: partitioned vs unified (384KB) vs Fermi-like (384KB), joint runs",
		"mix", "ways", "part cycles", "uni perf (x)", "uni energy (x)", "fermi perf (x)", "fermi energy (x)")
	for w, wl := range res.Campaign.Workloads {
		part := res.Outcomes[0][w]
		row := []string{wl.Label, fmt.Sprint(len(wl.Streams)), fmt.Sprint(part.Cycles)}
		if part.Infeasible {
			row[2] = "infeasible"
		}
		for _, o := range []campaign.Outcome{res.Outcomes[1][w], res.Outcomes[2][w]} {
			if part.Infeasible || o.Infeasible {
				row = append(row, "infeasible", "infeasible")
				continue
			}
			row = append(row, report.Ratio(float64(part.Cycles)/float64(o.Cycles)), report.Ratio(o.EnergyJ/part.EnergyJ))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// multitenantMixes are the co-tenancy mixes over a kernel list, as
// "+"-joined campaign workloads: every adjacent pair (2-way), then every
// adjacent quad (4-way), in registry order. Over the full 26-kernel
// registry that is 13 pairs and 6 quads.
func multitenantMixes(ks []*workloads.Kernel) []string {
	var mixes []string
	for _, ways := range []int{2, 4} {
		for i := 0; i+ways <= len(ks); i += ways {
			names := make([]string, ways)
			for j, k := range ks[i : i+ways] {
				names[j] = k.Name
			}
			mixes = append(mixes, strings.Join(names, "+"))
		}
	}
	return mixes
}
