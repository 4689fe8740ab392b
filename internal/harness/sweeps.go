package harness

import (
	"fmt"
	"strings"

	"repro/api"
	"repro/internal/campaign"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/occupancy"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/workloads"
)

// The Section 3.3 characterization and capacity sweeps (Table 1's DRAM
// columns, Figures 2, 3, 4 and 11) run every point as a campaign cell:
// the paper machine under the Runner's parameters with the point's
// capacities and resident-thread cap, plus a register budget. Shared
// memory rounds up to whole KB; at every point the thread cap, or the
// SM's thread limit, binds before the rounded-up bytes could admit
// another CTA. Capacity labels are computed from the exact bytes.

// spillBudgets are the register allocations of Table 1 columns 3-7 and
// the lines of Figure 2.
var spillBudgets = [...]int{18, 24, 32, 40, 64}

// table1CacheKB are the cache capacities of Table 1 columns 10-12.
var table1CacheKB = [...]int{0, 64, 256}

// threadSweep is the 256..1024 resident-thread axis of Figures 2-4.
var threadSweep = []int{256, 512, 768, 1024}

// cells runs a flat list of cells on r under r's seed.
func cells(r *core.Runner, runs []api.RunRequest) ([]campaign.Outcome, error) {
	for i := range runs {
		runs[i].Seed = r.Seed
	}
	return campaign.RunCells(r, runs, func(i int) string { return runs[i].Kernel })
}

// capacityMachine is the paper machine under r's parameters with the
// given capacities in bytes, each rounded up to whole KB, and
// resident-thread cap.
func capacityMachine(r *core.Runner, rfBytes, sharedBytes, cacheBytes, threads int) machine.Description {
	d := paperMachine(r)
	d.RFKB, d.SharedKB, d.CacheKB = kbCeil(rfBytes), kbCeil(sharedBytes), kbCeil(cacheBytes)
	d.MaxThreads = threads
	return d
}

// isolationMachine is the machine of the Section 3.3 limit studies:
// explicit RF and cache capacities, shared memory unbounded for k, and
// a resident-thread cap.
func isolationMachine(r *core.Runner, k *workloads.Kernel, rfBytes, cacheBytes, threads int) machine.Description {
	return capacityMachine(r, rfBytes, core.UnboundedShared(k), cacheBytes, threads)
}

// kbCeil converts bytes to whole KB, rounding up.
func kbCeil(b int) int { return (b + 1023) >> 10 }

// table1Row is one benchmark's measured Table 1 columns.
type table1Row struct {
	k *workloads.Kernel
	// dynRatio[i] is dynamic instructions with spillBudgets[i]
	// registers, normalized to the spill-free count (columns 3-7).
	dynRatio [len(spillBudgets)]float64
	// dramNorm[i] is DRAM traffic with table1CacheKB[i] of cache,
	// normalized to the 256 KB point (columns 10-12).
	dramNorm [len(table1CacheKB)]float64
}

// table1Rows measures Table 1 for the given kernels. The
// dynamic-instruction ratios come from trace generation alone; the DRAM
// columns run each kernel spill free with unbounded shared memory at
// each cache size.
func table1Rows(r *core.Runner, ks []*workloads.Kernel) ([]table1Row, error) {
	rows, err := parallel.Map(len(ks), func(i int) (table1Row, error) {
		row := table1Row{k: ks[i]}
		base := dynInsts(r, ks[i], 0)
		for j, budget := range spillBudgets {
			row.dynRatio[j] = float64(dynInsts(r, ks[i], budget)) / float64(base)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	// Cache-major cells keep concurrent workers on different kernels,
	// so no two wait on one kernel's trace build.
	var runs []api.RunRequest
	for _, kb := range table1CacheKB {
		for _, k := range ks {
			runs = append(runs, api.RunRequest{Kernel: k.Name,
				Machine: isolationMachine(r, k, occupancy.FullOccupancyRFBytes(k.RegsNeeded), kb<<10, 0)})
		}
	}
	outs, err := cells(r, runs)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		var dram [len(table1CacheKB)]int64
		for j, kb := range table1CacheKB {
			o := outs[j*len(ks)+i]
			if o.Infeasible {
				return nil, fmt.Errorf("table1 %s cache=%dK: infeasible", ks[i].Name, kb)
			}
			dram[j] = o.DRAMBytes
		}
		for j := range dram {
			rows[i].dramNorm[j] = float64(dram[j]) / float64(dram[len(dram)-1])
		}
	}
	return rows, nil
}

// Table1 renders the workload characterization.
func Table1(r *core.Runner) (*report.Table, error) {
	rows, err := table1Rows(r, workloads.All())
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		"Table 1: workload characterization (dyn insts normalized to spill-free; DRAM normalized to 256KB cache)",
		"workload", "category", "regs", "dyn@18", "dyn@24", "dyn@32", "dyn@40", "dyn@64",
		"RF-full-occ", "shm B/thr", "dram@0", "dram@64K", "dram@256K")
	for _, row := range rows {
		k := row.k
		cells := []string{k.Name, k.Category.String(), fmt.Sprint(k.RegsNeeded)}
		for _, v := range row.dynRatio {
			cells = append(cells, report.Ratio(v))
		}
		cells = append(cells, fmt.Sprintf("%dK", occupancy.FullOccupancyRFBytes(k.RegsNeeded)>>10),
			fmt.Sprintf("%.1f", k.SharedBytesPerThread()))
		for _, v := range row.dramNorm {
			cells = append(cells, report.Ratio(v))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// dynInsts counts warp instructions in a sample of the kernel's trace
// under a register budget (0 = spill free). Spills are inserted by the
// register allocator, not the timing model, and the ratio is
// CTA-invariant, so a few CTAs suffice.
func dynInsts(r *core.Runner, k *workloads.Kernel, budget int) int64 {
	if budget >= k.RegsNeeded {
		budget = 0
	}
	src := &workloads.Source{K: k, RegsAvail: budget, Seed: r.Seed}
	var n int64
	for cta := 0; cta < min(k.GridCTAs, 4); cta++ {
		for w := 0; w < k.WarpsPerCTA(); w++ {
			n += int64(src.WarpCode(cta, w).Len())
		}
	}
	return n
}

// sweepPoint is one point of a capacity sweep.
type sweepPoint struct {
	// line is the point's line: registers per thread in Figure 2, the
	// blocking factor in Figure 11, 0 otherwise.
	line int
	// threads is the resident-thread cap of this point.
	threads int
	// capacityKB is the swept capacity (RF, shared, or cache).
	capacityKB int
	// perf is performance normalized to the sweep's reference point; 0
	// for infeasible points, which cannot fit one CTA.
	perf       float64
	infeasible bool
	// run is the cell that measures the point.
	run api.RunRequest
}

// sweep is one benchmark's set of sweep lines.
type sweep struct {
	benchmark string
	points    []sweepPoint
}

// measure runs every point of sweeps as one batch of cells, setting its
// performance to reciprocal cycles. The cells go round-robin across the
// sweeps, so concurrent workers run different kernels and none waits on
// another's trace build.
func measure(r *core.Runner, sweeps []sweep) error {
	longest := 0
	for _, sw := range sweeps {
		longest = max(longest, len(sw.points))
	}
	var runs []api.RunRequest
	var pts []*sweepPoint
	for i := 0; i < longest; i++ {
		for s := range sweeps {
			if i < len(sweeps[s].points) {
				pts = append(pts, &sweeps[s].points[i])
				runs = append(runs, sweeps[s].points[i].run)
			}
		}
	}
	outs, err := cells(r, runs)
	if err != nil {
		return err
	}
	for n, p := range pts {
		p.infeasible = outs[n].Infeasible
		if !p.infeasible {
			p.perf = 1 / float64(outs[n].Cycles)
		}
	}
	return nil
}

// registrySweeps builds one sweep per named registry benchmark,
// measures them as one batch, and divides each sweep's performance by
// that of its reference point, the feasible point isRef selects.
func registrySweeps(r *core.Runner, names []string, build func(*workloads.Kernel) sweep,
	isRef func(sweepPoint) bool) ([]sweep, error) {
	sweeps := make([]sweep, len(names))
	for i, name := range names {
		k, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		sweeps[i] = build(k)
	}
	if err := measure(r, sweeps); err != nil {
		return nil, err
	}
	for _, sw := range sweeps {
		ref := 0.0
		for _, p := range sw.points {
			if !p.infeasible && isRef(p) {
				ref = p.perf
			}
		}
		scale(sw.points, ref)
	}
	return sweeps, nil
}

// scale divides the points' performance by ref (a zero ref leaves them).
func scale(pts []sweepPoint, ref float64) {
	if ref == 0 {
		return
	}
	for i := range pts {
		pts[i].perf /= ref
	}
}

// figure2Sweeps is the register-capacity study: lines are registers per
// thread from spillBudgets, points are thread counts, cache is fixed at
// 64 KB and shared memory is unbounded. Normalized to (64 regs, 1024
// threads). A budget above the kernel's demand runs spill free, so its
// cell is the demand's cell and runs once.
func figure2Sweeps(r *core.Runner) ([]sweep, error) {
	return registrySweeps(r, []string{"dgemm", "pcr", "needle", "bfs"}, func(k *workloads.Kernel) sweep {
		sw := sweep{benchmark: k.Name}
		for _, budget := range spillBudgets {
			for _, threads := range threadSweep {
				rf := min(budget, k.RegsNeeded) * 4 * threads
				sw.points = append(sw.points, sweepPoint{line: budget, threads: threads, capacityKB: rf >> 10,
					run: api.RunRequest{Kernel: k.Name, Machine: isolationMachine(r, k, rf, 64<<10, threads), RegsPerThread: budget}})
			}
		}
		return sw
	}, func(p sweepPoint) bool { return p.line == 64 && p.threads == 1024 })
}

// sharedSweep is a sweep of shared-memory capacity sized exactly for
// each resident-thread cap: spill-free registers and a 64 KB cache. bf
// is k's needle blocking factor (0 for a registry kernel) and the
// points' line.
func sharedSweep(r *core.Runner, k *workloads.Kernel, label string, bf int, threads []int) sweep {
	sw := sweep{benchmark: label}
	for _, t := range threads {
		shm := max(t/k.ThreadsPerCTA, 1) * k.SharedBytesPerCTA
		sw.points = append(sw.points, sweepPoint{line: bf, threads: t, capacityKB: shm >> 10,
			run: api.RunRequest{Kernel: k.Name, BF: bf,
				Machine: capacityMachine(r, occupancy.FullOccupancyRFBytes(k.RegsNeeded), shm, 64<<10, t)}})
	}
	return sw
}

// figure3Sweeps is the shared-memory-capacity study, normalized to 1024
// threads.
func figure3Sweeps(r *core.Runner) ([]sweep, error) {
	return registrySweeps(r, []string{"needle", "pcr", "lu", "sto"}, func(k *workloads.Kernel) sweep {
		return sharedSweep(r, k, k.Name, 0, threadSweep)
	}, func(p sweepPoint) bool { return p.threads == 1024 })
}

// figure4CacheKB is Figure 4's swept cache capacity axis.
var figure4CacheKB = []int{32, 64, 128, 256, 512}

// figure4Sweeps is the cache-capacity study: spill-free registers,
// unbounded shared memory, lines are thread counts. Normalized to
// (512 KB cache, 1024 threads).
func figure4Sweeps(r *core.Runner) ([]sweep, error) {
	return registrySweeps(r, []string{"bfs", "pcr", "mummer", "needle"}, func(k *workloads.Kernel) sweep {
		sw := sweep{benchmark: k.Name}
		for _, threads := range threadSweep {
			for _, kb := range figure4CacheKB {
				sw.points = append(sw.points, sweepPoint{threads: threads, capacityKB: kb,
					run: api.RunRequest{Kernel: k.Name,
						Machine: isolationMachine(r, k, occupancy.FullOccupancyRFBytes(k.RegsNeeded), kb<<10, threads)}})
			}
		}
		return sw
	}, func(p sweepPoint) bool { return p.threads == 1024 && p.capacityKB == 512 })
}

// figure11Sweeps is the needle blocking-factor study: for each BF, a
// shared-memory sweep over resident threads in steps of two CTAs.
// Performance is normalized to the best point observed (the paper
// normalizes to its largest configuration).
func figure11Sweeps(r *core.Runner) ([]sweep, error) {
	var sweeps []sweep
	for _, bf := range []int{16, 32, 64} {
		k := workloads.NeedleKernel(bf)
		var threads []int
		for t := k.ThreadsPerCTA; t <= config.MaxThreadsPerSM; t += 2 * k.ThreadsPerCTA {
			threads = append(threads, t)
		}
		sweeps = append(sweeps, sharedSweep(r, k, fmt.Sprintf("needle BF=%d", bf), bf, threads))
	}
	if err := measure(r, sweeps); err != nil {
		return nil, err
	}
	best := 0.0
	for _, sw := range sweeps {
		for _, p := range sw.points {
			if !p.infeasible && p.perf > best {
				best = p.perf
			}
		}
	}
	for _, sw := range sweeps {
		scale(sw.points, best)
	}
	return sweeps, nil
}

// sweepTable renders capacity-sweep figures: one row per (benchmark,
// point), with infeasible points marked.
func sweepTable(title string, sweeps []sweep, lineLabel string) *report.Table {
	t := report.NewTable(title, "benchmark", lineLabel, "threads", "capacity", "norm perf")
	for _, sw := range sweeps {
		for _, p := range sw.points {
			t.AddRow(sw.benchmark, fmt.Sprint(p.line), fmt.Sprint(p.threads),
				fmt.Sprintf("%dK", p.capacityKB), p.perfCell())
		}
	}
	return t
}

// perfCell renders the point's normalized performance.
func (p sweepPoint) perfCell() string {
	if p.infeasible {
		return "infeasible"
	}
	return report.Ratio(p.perf)
}

// Figure2 renders performance versus register file capacity.
func Figure2(r *core.Runner) (*report.Table, error) {
	sweeps, err := figure2Sweeps(r)
	if err != nil {
		return nil, err
	}
	return sweepTable("Figure 2: performance vs register file capacity (normalized to 64 regs, 1024 threads)",
		sweeps, "regs/thread"), nil
}

// Figure3 renders performance versus shared-memory capacity.
func Figure3(r *core.Runner) (*report.Table, error) {
	sweeps, err := figure3Sweeps(r)
	if err != nil {
		return nil, err
	}
	return sweepTable("Figure 3: performance vs shared memory capacity (normalized to 1024 threads)",
		sweeps, "-"), nil
}

// Figure4 renders performance versus cache capacity.
func Figure4(r *core.Runner) (*report.Table, error) {
	sweeps, err := figure4Sweeps(r)
	if err != nil {
		return nil, err
	}
	return sweepTable("Figure 4: performance vs cache capacity (normalized to 512KB cache, 1024 threads)",
		sweeps, "-"), nil
}

// Figure11 renders the needle blocking-factor study.
func Figure11(r *core.Runner) (*report.Table, error) {
	sweeps, err := figure11Sweeps(r)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 11: needle performance vs shared memory capacity by blocking factor",
		"variant", "threads", "shared", "norm perf")
	for _, sw := range sweeps {
		for _, p := range sw.points {
			t.AddRow(sw.benchmark, fmt.Sprint(p.threads), fmt.Sprintf("%dK", p.capacityKB), p.perfCell())
		}
	}
	return t, nil
}

// ChartableExperiments lists experiments Chart can render as plots.
var ChartableExperiments = []string{"figure2", "figure3", "figure4", "figure11"}

// Chart renders a capacity-sweep experiment as ASCII charts (one per
// benchmark for the multi-benchmark figures).
func Chart(r *core.Runner, name string) (string, error) {
	var sweeps []sweep
	var err error
	var xLabel string
	perBenchmarkSeries := false
	switch name {
	case "figure2":
		sweeps, err = figure2Sweeps(r)
		xLabel = "RF capacity (KB)"
	case "figure3":
		sweeps, err = figure3Sweeps(r)
		xLabel = "shared memory (KB)"
		perBenchmarkSeries = true
	case "figure4":
		sweeps, err = figure4Sweeps(r)
		xLabel = "cache capacity (KB)"
	case "figure11":
		sweeps, err = figure11Sweeps(r)
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
			for _, p := range sw.points {
				if p.infeasible {
					continue
				}
				xs = append(xs, float64(p.capacityKB))
				ys = append(ys, p.perf)
			}
			ch.AddSeries(sw.benchmark, xs, ys)
		}
		b.WriteString(ch.String())
		return b.String(), nil
	}
	// One chart per benchmark, one series per line (regs or threads).
	for _, sw := range sweeps {
		ch := report.NewChart(fmt.Sprintf("%s: %s", name, sw.benchmark), xLabel, "perf")
		series := map[int]struct{ xs, ys []float64 }{}
		var keys []int
		lineOf := func(p sweepPoint) int {
			if name == "figure2" {
				return p.line
			}
			return p.threads
		}
		for _, p := range sw.points {
			if p.infeasible {
				continue
			}
			k := lineOf(p)
			s := series[k]
			s.xs = append(s.xs, float64(p.capacityKB))
			s.ys = append(s.ys, p.perf)
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
