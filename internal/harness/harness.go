// Package harness regenerates every table and figure of the paper as a
// rendered text table. It is the shared engine behind cmd/paper, smserve's
// /v1/experiment and the repository benchmark: each ExperimentFunc runs the
// corresponding internal/core driver and formats its output with the same
// rows and series the paper reports.
package harness

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/report"
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

// Table1 renders the workload characterization.
func Table1(r *core.Runner) (*report.Table, error) {
	rows, err := r.Table1(workloads.All())
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		"Table 1: workload characterization (dyn insts normalized to spill-free; DRAM normalized to 256KB cache)",
		"workload", "category", "regs", "dyn@18", "dyn@24", "dyn@32", "dyn@40", "dyn@64",
		"RF-full-occ", "shm B/thr", "dram@0", "dram@64K", "dram@256K")
	for _, row := range rows {
		t.AddRow(
			row.Name, row.Category.String(), fmt.Sprint(row.RegsPerThread),
			report.Ratio(row.DynInstRatio[0]), report.Ratio(row.DynInstRatio[1]),
			report.Ratio(row.DynInstRatio[2]), report.Ratio(row.DynInstRatio[3]),
			report.Ratio(row.DynInstRatio[4]),
			fmt.Sprintf("%dK", row.RFFullOccupancyKB),
			fmt.Sprintf("%.1f", row.SharedBytesPerThread),
			report.Ratio(row.DRAMNorm[0]), report.Ratio(row.DRAMNorm[1]),
			report.Ratio(row.DRAMNorm[2]))
	}
	return t, nil
}

// SweepTable renders capacity-sweep figures: one row per (benchmark,
// point), with infeasible points marked.
func SweepTable(title string, sweeps []core.FigureSweep, lineLabel string) *report.Table {
	t := report.NewTable(title, "benchmark", lineLabel, "threads", "capacity", "norm perf")
	for _, sw := range sweeps {
		for _, p := range sw.Points {
			perf := report.Ratio(p.Perf)
			if p.Infeasible {
				perf = "infeasible"
			}
			t.AddRow(sw.Benchmark, fmt.Sprint(p.Regs), fmt.Sprint(p.Threads),
				fmt.Sprintf("%dK", p.CapacityKB), perf)
		}
	}
	return t
}

// Figure2 renders performance versus register file capacity.
func Figure2(r *core.Runner) (*report.Table, error) {
	sweeps, err := r.Figure2()
	if err != nil {
		return nil, err
	}
	return SweepTable("Figure 2: performance vs register file capacity (normalized to 64 regs, 1024 threads)",
		sweeps, "regs/thread"), nil
}

// Figure3 renders performance versus shared-memory capacity.
func Figure3(r *core.Runner) (*report.Table, error) {
	sweeps, err := r.Figure3()
	if err != nil {
		return nil, err
	}
	return SweepTable("Figure 3: performance vs shared memory capacity (normalized to 1024 threads)",
		sweeps, "-"), nil
}

// Figure4 renders performance versus cache capacity.
func Figure4(r *core.Runner) (*report.Table, error) {
	sweeps, err := r.Figure4()
	if err != nil {
		return nil, err
	}
	return SweepTable("Figure 4: performance vs cache capacity (normalized to 512KB cache, 1024 threads)",
		sweeps, "-"), nil
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

// Table5 renders the bank-conflict breakdown.
func Table5(r *core.Runner) (*report.Table, error) {
	rows, err := r.Table5()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 5: warp instructions by max accesses to a single bank (Figure 7 benchmarks)",
		"design", "<=1", "2", "3", "4", ">4")
	for _, row := range rows {
		t.AddRow(row.Machine,
			report.Percent(row.Fractions[0]), report.Percent(row.Fractions[1]),
			report.Percent(row.Fractions[2]), report.Percent(row.Fractions[3]),
			report.Percent(row.Fractions[4]))
	}
	return t, nil
}

// NewComparisonTable returns an empty baseline-comparison table with
// the canonical Figure 7/9/10 columns. Callers that need per-row
// control (e.g. infeasible markers in campaign tables) pair it with
// ComparisonRow; everyone else uses ComparisonTable.
func NewComparisonTable(title string) *report.Table {
	return report.NewTable(title,
		"benchmark", "perf (x)", "energy (x)", "dram (x)", "threads", "rf", "shared", "cache")
}

// ComparisonRow formats one comparison for NewComparisonTable.
func ComparisonRow(c core.Comparison) []string {
	return []string{c.Benchmark, report.Ratio(c.PerfRatio), report.Ratio(c.EnergyRatio),
		report.Ratio(c.DRAMRatio), fmt.Sprint(c.Threads),
		report.KB(c.Config.RFBytes), report.KB(c.Config.SharedBytes),
		report.KB(c.Config.CacheBytes)}
}

// ComparisonTable renders machine-versus-baseline comparisons — the
// Figure 7/9/10 rendering, shared with the campaign layer's
// paper-style tables.
func ComparisonTable(title string, comps []core.Comparison) *report.Table {
	t := NewComparisonTable(title)
	for _, c := range comps {
		t.AddRow(ComparisonRow(c)...)
	}
	return t
}

// Figure7 renders the no-benefit comparison.
func Figure7(r *core.Runner) (*report.Table, error) {
	comps, err := r.Figure7()
	if err != nil {
		return nil, err
	}
	return ComparisonTable("Figure 7: unified (384KB) vs partitioned, applications with no benefit", comps), nil
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

// Figure9 renders the benefit comparison.
func Figure9(r *core.Runner) (*report.Table, error) {
	comps, err := r.Figure9()
	if err != nil {
		return nil, err
	}
	return ComparisonTable("Figure 9: unified (384KB) vs partitioned, applications that benefit", comps), nil
}

// Figure10 renders the Fermi-like limited-flexibility comparison.
func Figure10(r *core.Runner) (*report.Table, error) {
	comps, err := r.Figure10()
	if err != nil {
		return nil, err
	}
	return ComparisonTable("Figure 10: Fermi-like limited design (384KB) vs partitioned", comps), nil
}

// Table6 renders capacity sensitivity.
func Table6(r *core.Runner) (*report.Table, error) {
	rows, err := r.Table6()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 6: unified capacity sensitivity (normalized to baseline partitioned)",
		"benchmark", "perf@128K", "perf@256K", "perf@384K", "energy@128K", "energy@256K", "energy@384K")
	for _, row := range rows {
		cell := func(v float64, infeasible bool) string {
			if infeasible {
				return "n/a"
			}
			return report.Ratio(v)
		}
		t.AddRow(row.Benchmark,
			cell(row.Perf[0], row.Infeasible[0]), cell(row.Perf[1], row.Infeasible[1]),
			cell(row.Perf[2], row.Infeasible[2]),
			cell(row.Energy[0], row.Infeasible[0]), cell(row.Energy[1], row.Infeasible[1]),
			cell(row.Energy[2], row.Infeasible[2]))
	}
	return t, nil
}

// Figure11 renders the needle blocking-factor study.
func Figure11(r *core.Runner) (*report.Table, error) {
	sweeps, err := r.Figure11()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 11: needle performance vs shared memory capacity by blocking factor",
		"variant", "threads", "shared", "norm perf")
	for _, sw := range sweeps {
		for _, p := range sw.Points {
			perf := report.Ratio(p.Perf)
			if p.Infeasible {
				perf = "infeasible"
			}
			t.AddRow(sw.Benchmark, fmt.Sprint(p.Threads), fmt.Sprintf("%dK", p.CapacityKB), perf)
		}
	}
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

// Ablation renders the Section 4.2 simple-vs-aggressive scatter design
// comparison over the full registry.
func Ablation(r *core.Runner) (*report.Table, error) {
	rows, err := r.AblateScatter(workloads.All())
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		"Ablation (§4.2): aggressive multi-bank scatter/gather vs simple unified design",
		"benchmark", "speedup", "conflict cycles (simple)", "conflict cycles (aggressive)")
	for _, row := range rows {
		t.AddRow(row.Benchmark, fmt.Sprintf("%.4f", row.Speedup),
			fmt.Sprint(row.ConflictCyclesSimple), fmt.Sprint(row.ConflictCyclesAggressive))
	}
	return t, nil
}

// Multitenant renders the concurrent-kernel co-tenancy study: every
// adjacent registry pair and quad runs as one multi-tenant mix under
// the three designs, with the partitioned baseline as the 1.00
// reference. Unified and Fermi capacities partition the baseline's
// 384 KB jointly for the whole mix.
func Multitenant(r *core.Runner) (*report.Table, error) {
	rows, err := r.Multitenant(core.MultitenantMixes(workloads.All()))
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		"Multi-tenant co-tenancy: partitioned vs unified (384KB) vs Fermi-like (384KB), joint runs",
		"mix", "ways", "part cycles", "uni perf (x)", "uni energy (x)", "fermi perf (x)", "fermi energy (x)")
	cell := func(v float64, infeasible bool) string {
		if infeasible {
			return "infeasible"
		}
		return report.Ratio(v)
	}
	for _, row := range rows {
		part := fmt.Sprint(row.PartCycles)
		if row.PartInfeasible {
			part = "infeasible"
		}
		inf := row.PartInfeasible
		t.AddRow(row.Mix, fmt.Sprint(row.Ways), part,
			cell(row.UnifiedPerf, inf || row.UnifiedInfeasible),
			cell(row.UnifiedEnergy, inf || row.UnifiedInfeasible),
			cell(row.FermiPerf, inf || row.FermiInfeasible),
			cell(row.FermiEnergy, inf || row.FermiInfeasible))
	}
	return t, nil
}

// ChartableExperiments lists experiments Chart can render as plots.
var ChartableExperiments = []string{"figure2", "figure3", "figure4", "figure11"}

// Chart renders a capacity-sweep experiment as ASCII charts (one per
// benchmark for the multi-benchmark figures).
func Chart(r *core.Runner, name string) (string, error) {
	var sweeps []core.FigureSweep
	var err error
	var xLabel string
	perBenchmarkSeries := false
	switch name {
	case "figure2":
		sweeps, err = r.Figure2()
		xLabel = "RF capacity (KB)"
	case "figure3":
		sweeps, err = r.Figure3()
		xLabel = "shared memory (KB)"
		perBenchmarkSeries = true
	case "figure4":
		sweeps, err = r.Figure4()
		xLabel = "cache capacity (KB)"
	case "figure11":
		sweeps, err = r.Figure11()
		xLabel = "shared memory (KB)"
		perBenchmarkSeries = true
	default:
		return "", fmt.Errorf("harness: experiment %q is not chartable (have %s)",
			name, strings.Join(ChartableExperiments, ", "))
	}
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if perBenchmarkSeries {
		// One chart, one series per benchmark/variant.
		ch := report.NewChart(name+": normalized performance", xLabel, "perf")
		for _, sw := range sweeps {
			var xs, ys []float64
			for _, p := range sw.Points {
				if p.Infeasible {
					continue
				}
				xs = append(xs, float64(p.CapacityKB))
				ys = append(ys, p.Perf)
			}
			ch.AddSeries(sw.Benchmark, xs, ys)
		}
		b.WriteString(ch.String())
		return b.String(), nil
	}
	// One chart per benchmark, one series per line (regs or threads).
	for _, sw := range sweeps {
		ch := report.NewChart(fmt.Sprintf("%s: %s", name, sw.Benchmark), xLabel, "perf")
		series := map[int]struct{ xs, ys []float64 }{}
		var keys []int
		lineOf := func(p core.SweepPoint) int {
			if name == "figure2" {
				return p.Regs
			}
			return p.Threads
		}
		for _, p := range sw.Points {
			if p.Infeasible {
				continue
			}
			k := lineOf(p)
			s := series[k]
			s.xs = append(s.xs, float64(p.CapacityKB))
			s.ys = append(s.ys, p.Perf)
			if len(s.xs) == 1 {
				keys = append(keys, k)
			}
			series[k] = s
		}
		for _, k := range keys {
			label := fmt.Sprintf("%d regs", k)
			if name != "figure2" {
				label = fmt.Sprintf("%d threads", k)
			}
			ch.AddSeries(label, series[k].xs, series[k].ys)
		}
		b.WriteString(ch.String())
		b.WriteByte('\n')
	}
	return b.String(), nil
}
