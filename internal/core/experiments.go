package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/occupancy"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// SpillBudgets are the register allocations of Table 1 columns 3-7.
var SpillBudgets = []int{18, 24, 32, 40, 64}

// Table1CacheSizes are the cache capacities of Table 1 columns 10-12.
var Table1CacheSizes = []int{0, 64 << 10, 256 << 10}

// Table1Row is one benchmark's characterization (Table 1).
type Table1Row struct {
	Name     string
	Category workloads.Category
	// RegsPerThread is the spill-free register demand (column 2).
	RegsPerThread int
	// DynInstRatio[i] is dynamic instructions with SpillBudgets[i]
	// registers, normalized to the spill-free count (columns 3-7).
	DynInstRatio [5]float64
	// RFFullOccupancyKB is column 8.
	RFFullOccupancyKB int
	// SharedBytesPerThread is column 9.
	SharedBytesPerThread float64
	// DRAMNorm[i] is DRAM traffic with Table1CacheSizes[i] of cache,
	// normalized to the 256 KB point (columns 10-12).
	DRAMNorm [3]float64
}

// Table1 regenerates the workload characterization for the given kernels,
// one kernel per parallel work item.
func (r *Runner) Table1(kernels []*workloads.Kernel) ([]Table1Row, error) {
	return parallel.Map(len(kernels), func(i int) (Table1Row, error) {
		k := kernels[i]
		row := Table1Row{
			Name:                 k.Name,
			Category:             k.Category,
			RegsPerThread:        k.RegsNeeded,
			RFFullOccupancyKB:    occupancy.FullOccupancyRFBytes(k.RegsNeeded) >> 10,
			SharedBytesPerThread: k.SharedBytesPerThread(),
		}
		// Dynamic-instruction ratios come from trace generation alone:
		// spills are inserted by the register allocator, not the timing
		// model. Sample a few CTAs; the ratio is CTA-invariant.
		base := r.dynInsts(k, 0)
		for j, budget := range SpillBudgets {
			row.DynInstRatio[j] = float64(r.dynInsts(k, budget)) / float64(base)
		}
		// DRAM traffic under the Section 3.3 isolation config (spill-free
		// registers, unbounded shared memory) at each cache size.
		var dram [3]int64
		for j, cb := range Table1CacheSizes {
			cfg := IsolationConfig(k, occupancy.FullOccupancyRFBytes(k.RegsNeeded), cb, 0)
			res, err := r.Run(RunSpec{Kernel: k, Config: cfg})
			if err != nil {
				return row, fmt.Errorf("table1 %s cache=%d: %w", k.Name, cb, err)
			}
			dram[j] = res.Counters.DRAMBytes()
		}
		for j := range dram {
			row.DRAMNorm[j] = float64(dram[j]) / float64(dram[2])
		}
		return row, nil
	})
}

// dynInsts counts warp instructions in a sample of the kernel's trace
// under a register budget (0 = spill free).
func (r *Runner) dynInsts(k *workloads.Kernel, budget int) int64 {
	if budget >= k.RegsNeeded {
		budget = 0
	}
	src := &workloads.Source{K: k, RegsAvail: budget, Seed: r.Seed}
	ctas := k.GridCTAs
	if ctas > 4 {
		ctas = 4
	}
	var n int64
	for cta := 0; cta < ctas; cta++ {
		for w := 0; w < k.WarpsPerCTA(); w++ {
			n += int64(src.WarpCode(cta, w).Len())
		}
	}
	return n
}

// SweepPoint is one point of a Section 3.3 capacity sweep.
type SweepPoint struct {
	// Regs is the per-thread register allocation of this line.
	Regs int
	// Threads is the resident-thread cap of this point.
	Threads int
	// CapacityKB is the swept capacity (RF, shared, or cache).
	CapacityKB int
	// Perf is performance normalized to the sweep's reference point.
	Perf float64
	// Infeasible marks configurations that cannot run (e.g. one CTA does
	// not fit); Perf is 0 for these.
	Infeasible bool
}

// FigureSweep is one benchmark's set of sweep lines.
type FigureSweep struct {
	Benchmark string
	Points    []SweepPoint
}

// Figure2Benchmarks are the register-capacity case studies.
var Figure2Benchmarks = []string{"dgemm", "pcr", "needle", "bfs"}

// ThreadSweep is the 256..1024 resident-thread axis of Figures 2-4.
var ThreadSweep = []int{256, 512, 768, 1024}

// Figure2 reproduces the performance-versus-register-file-capacity study:
// lines are registers/thread from SpillBudgets, points are thread counts,
// cache is fixed at 64 KB and shared memory is unbounded. Performance is
// normalized to (64 regs, 1024 threads). A budget above the kernel's
// demand runs spill free, the same point as the demand itself, so each
// distinct (benchmark, effective regs, threads) point runs once, all of
// them as one flat parallel batch.
func (r *Runner) Figure2() ([]FigureSweep, error) {
	kernels, err := kernelsByName(Figure2Benchmarks)
	if err != nil {
		return nil, err
	}
	type job struct{ kernel, regs, threads int }
	perBench := len(SpillBudgets) * len(ThreadSweep)
	var jobs []job
	jobOf := make([]int, len(kernels)*perBench) // point -> its job
	seen := make(map[job]int)
	for i := range jobOf {
		k := kernels[i/perBench]
		j := job{i / perBench, min(SpillBudgets[i%perBench/len(ThreadSweep)], k.RegsNeeded), ThreadSweep[i%len(ThreadSweep)]}
		n, ok := seen[j]
		if !ok {
			n = len(jobs)
			seen[j] = n
			jobs = append(jobs, j)
		}
		jobOf[i] = n
	}
	runs, err := parallel.Map(len(jobs), func(n int) (SweepPoint, error) {
		j := jobs[n]
		k := kernels[j.kernel]
		rf := j.regs * 4 * j.threads
		cfg := IsolationConfig(k, rf, 64<<10, j.threads)
		res, err := r.Run(RunSpec{Kernel: k, Config: cfg, RegsPerThread: j.regs})
		pt := SweepPoint{Threads: j.threads, CapacityKB: rf >> 10}
		switch {
		case IsInfeasible(err):
			pt.Infeasible = true
		case err != nil:
			return pt, err
		default:
			pt.Perf = res.Performance()
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	points := make([]SweepPoint, len(jobOf))
	for i, n := range jobOf {
		points[i] = runs[n]
		points[i].Regs = SpillBudgets[i%perBench/len(ThreadSweep)]
	}
	return groupSweeps(kernels, points, perBench, func(p SweepPoint) bool {
		return p.Regs == 64 && p.Threads == 1024
	}), nil
}

// kernelsByName resolves a benchmark name list, failing on the first
// unknown name as the serial loops did.
func kernelsByName(names []string) ([]*workloads.Kernel, error) {
	out := make([]*workloads.Kernel, len(names))
	for i, name := range names {
		k, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		out[i] = k
	}
	return out, nil
}

// groupSweeps slices a flat per-benchmark-major point batch back into one
// FigureSweep per kernel, normalizing each to its reference point (the
// feasible point isRef selects).
func groupSweeps(kernels []*workloads.Kernel, points []SweepPoint, perBench int,
	isRef func(SweepPoint) bool) []FigureSweep {
	out := make([]FigureSweep, 0, len(kernels))
	for b, k := range kernels {
		sweep := FigureSweep{Benchmark: k.Name, Points: points[b*perBench : (b+1)*perBench]}
		ref := 0.0
		for _, p := range sweep.Points {
			if !p.Infeasible && isRef(p) {
				ref = p.Perf
			}
		}
		normalize(sweep.Points, ref)
		out = append(out, sweep)
	}
	return out
}

// Figure3Benchmarks are the shared-memory-capacity case studies.
var Figure3Benchmarks = []string{"needle", "pcr", "lu", "sto"}

// Figure3 reproduces performance versus shared-memory capacity: spill-free
// registers, 64 KB cache, shared memory sized exactly for each resident
// thread count. Normalized to 1024 threads.
func (r *Runner) Figure3() ([]FigureSweep, error) {
	kernels, err := kernelsByName(Figure3Benchmarks)
	if err != nil {
		return nil, err
	}
	perBench := len(ThreadSweep)
	points, err := parallel.Map(len(kernels)*perBench, func(i int) (SweepPoint, error) {
		k := kernels[i/perBench]
		threads := ThreadSweep[i%perBench]
		ctas := threads / k.ThreadsPerCTA
		if ctas < 1 {
			ctas = 1
		}
		shm := ctas * k.SharedBytesPerCTA
		cfg := config.MemConfig{
			Design:      config.Partitioned,
			RFBytes:     occupancy.FullOccupancyRFBytes(k.RegsNeeded),
			SharedBytes: shm,
			CacheBytes:  64 << 10,
			MaxThreads:  threads,
		}
		res, err := r.Run(RunSpec{Kernel: k, Config: cfg})
		pt := SweepPoint{Threads: threads, CapacityKB: shm >> 10}
		switch {
		case IsInfeasible(err):
			pt.Infeasible = true
		case err != nil:
			return pt, err
		default:
			pt.Perf = res.Performance()
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	return groupSweeps(kernels, points, perBench, func(p SweepPoint) bool {
		return p.Threads == 1024
	}), nil
}

// Figure4Benchmarks are the cache-capacity case studies.
var Figure4Benchmarks = []string{"bfs", "pcr", "mummer", "needle"}

// Figure4CacheSizes is the swept cache capacity axis.
var Figure4CacheSizes = []int{32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10}

// Figure4 reproduces performance versus cache capacity: spill-free
// registers, unbounded shared memory, lines are thread counts. Normalized
// to (512 KB cache, 1024 threads).
func (r *Runner) Figure4() ([]FigureSweep, error) {
	kernels, err := kernelsByName(Figure4Benchmarks)
	if err != nil {
		return nil, err
	}
	perBench := len(ThreadSweep) * len(Figure4CacheSizes)
	points, err := parallel.Map(len(kernels)*perBench, func(i int) (SweepPoint, error) {
		k := kernels[i/perBench]
		threads := ThreadSweep[i%perBench/len(Figure4CacheSizes)]
		cb := Figure4CacheSizes[i%len(Figure4CacheSizes)]
		cfg := IsolationConfig(k, occupancy.FullOccupancyRFBytes(k.RegsNeeded), cb, threads)
		res, err := r.Run(RunSpec{Kernel: k, Config: cfg})
		pt := SweepPoint{Threads: threads, CapacityKB: cb >> 10}
		switch {
		case IsInfeasible(err):
			pt.Infeasible = true
		case err != nil:
			return pt, err
		default:
			pt.Perf = res.Performance()
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	return groupSweeps(kernels, points, perBench, func(p SweepPoint) bool {
		return p.Threads == 1024 && p.CapacityKB == 512
	}), nil
}

// normalize rescales sweep points by the reference performance.
func normalize(pts []SweepPoint, ref float64) {
	if ref == 0 {
		return
	}
	for i := range pts {
		pts[i].Perf /= ref
	}
}

// unifiedConfig is k's §4.5 allocation of a unified memory of
// totalBytes.
func unifiedConfig(k *workloads.Kernel, totalBytes int) (config.MemConfig, error) {
	cfg, err := config.AllocateMulti([]config.KernelRequirements{k.Requirements()}, totalBytes, 0)
	if err != nil {
		return config.MemConfig{}, fmt.Errorf("allocate %s: %w", k.Name, err)
	}
	return cfg, nil
}

// Figure8Row is one benchmark's chosen partitioning of the 384 KB unified
// memory (Figure 8).
type Figure8Row struct {
	Benchmark               string
	RFKB, SharedKB, CacheKB int
	Threads                 int
}

// Figure8 reports how the Section 4.5 algorithm divides 384 KB for the
// benefit set.
func (r *Runner) Figure8() ([]Figure8Row, error) {
	var out []Figure8Row
	for _, k := range workloads.BenefitSet() {
		cfg, err := config.AllocateMulti([]config.KernelRequirements{k.Requirements()}, config.BaselineTotalBytes, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, Figure8Row{
			Benchmark: k.Name,
			RFKB:      cfg.RFBytes >> 10,
			SharedKB:  cfg.SharedBytes >> 10,
			CacheKB:   cfg.CacheBytes >> 10,
			Threads:   cfg.MaxThreads,
		})
	}
	return out, nil
}

// ConflictRow is the bank-conflict breakdown of one design (Table 5).
type ConflictRow struct {
	Machine   string
	Fractions [stats.ConflictBuckets]float64
}

// Table5 aggregates the per-instruction maximum-bank-accesses histogram
// across the Figure 7 benchmarks for the partitioned and unified
// designs, weighting benchmarks equally as the paper averages. The
// (design, kernel) runs form one flat parallel batch, partitioned runs
// first; aggregation stays in kernel order.
func (r *Runner) Table5() ([]ConflictRow, error) {
	kernels := workloads.NoBenefitSet()
	fracs, err := parallel.Map(2*len(kernels),
		func(i int) ([stats.ConflictBuckets]float64, error) {
			k := kernels[i%len(kernels)]
			var res *Result
			var err error
			if i < len(kernels) {
				// The baseline run doubles as the energy calibration and
				// is cached on the Runner.
				res, err = r.Baseline(k)
			} else {
				var cfg config.MemConfig
				if cfg, err = unifiedConfig(k, config.BaselineTotalBytes); err == nil {
					res, err = r.Run(RunSpec{Kernel: k, Config: cfg})
				}
			}
			if err != nil {
				return [stats.ConflictBuckets]float64{}, err
			}
			return res.Counters.ConflictFractions(), nil
		})
	if err != nil {
		return nil, err
	}
	names := []string{config.Partitioned.String(), config.Unified.String()}
	out := make([]ConflictRow, len(names))
	for i, name := range names {
		var agg stats.Counters
		for _, frac := range fracs[i*len(kernels) : (i+1)*len(kernels)] {
			for b := range frac {
				// Weight benchmarks equally, as the paper averages.
				agg.ConflictHist[b] += int64(frac[b] * 1e6)
			}
		}
		row := ConflictRow{Machine: name}
		total := int64(0)
		for _, v := range agg.ConflictHist {
			total += v
		}
		for b, v := range agg.ConflictHist {
			row.Fractions[b] = float64(v) / float64(total)
		}
		out[i] = row
	}
	return out, nil
}

// Figure11Point is one (blocking factor, thread count) needle measurement.
type Figure11Point struct {
	BF         int
	Threads    int
	SharedKB   int
	Perf       float64
	Infeasible bool
}

// Figure11BlockingFactors are the needle variants of the tuning study.
var Figure11BlockingFactors = []int{16, 32, 64}

// Figure11 reproduces the needle blocking-factor study: for each BF, sweep
// resident threads and report performance against the shared-memory
// capacity each point requires. Performance is normalized to the best
// point observed (the paper normalizes to its largest configuration).
func (r *Runner) Figure11() ([]FigureSweep, error) {
	// The thread axis depends on each variant's CTA size, so enumerate the
	// (kernel, threads) jobs first, then run them as one parallel batch.
	type job struct {
		k       *workloads.Kernel
		sweep   int
		threads int
	}
	var jobs []job
	sweeps := make([]FigureSweep, len(Figure11BlockingFactors))
	for i, bf := range Figure11BlockingFactors {
		k := workloads.NeedleKernel(bf)
		sweeps[i].Benchmark = fmt.Sprintf("needle BF=%d", bf)
		for threads := k.ThreadsPerCTA; threads <= config.MaxThreadsPerSM; threads += 2 * k.ThreadsPerCTA {
			jobs = append(jobs, job{k: k, sweep: i, threads: threads})
		}
	}
	points, err := parallel.Map(len(jobs), func(i int) (SweepPoint, error) {
		j := jobs[i]
		ctas := j.threads / j.k.ThreadsPerCTA
		shm := ctas * j.k.SharedBytesPerCTA
		cfg := config.MemConfig{
			Design:      config.Partitioned,
			RFBytes:     occupancy.FullOccupancyRFBytes(j.k.RegsNeeded),
			SharedBytes: shm,
			CacheBytes:  64 << 10,
			MaxThreads:  j.threads,
		}
		res, err := r.Run(RunSpec{Kernel: j.k, Config: cfg})
		pt := SweepPoint{Regs: j.k.BF, Threads: j.threads, CapacityKB: shm >> 10}
		switch {
		case IsInfeasible(err):
			pt.Infeasible = true
		case err != nil:
			return pt, err
		default:
			pt.Perf = res.Performance()
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	best := 0.0
	for _, pt := range points {
		if !pt.Infeasible && pt.Perf > best {
			best = pt.Perf
		}
	}
	for i, pt := range points {
		sweeps[jobs[i].sweep].Points = append(sweeps[jobs[i].sweep].Points, pt)
	}
	for i := range sweeps {
		normalize(sweeps[i].Points, best)
	}
	return sweeps, nil
}

// Table4Row is one bank energy entry (Table 4).
type Table4Row struct {
	Structure string
	BankKB    int
	ReadPJ    float64
	WritePJ   float64
}

// Table4 reports the SRAM bank access energies of both designs.
func Table4() []Table4Row {
	entries := []struct {
		structure string
		bankBytes int
	}{
		{"256KB RF (partitioned)", 8 << 10},
		{"64KB shared (partitioned)", 2 << 10},
		{"64KB cache (partitioned)", 2 << 10},
		{"384KB unified", 12 << 10},
	}
	out := make([]Table4Row, 0, len(entries))
	for _, e := range entries {
		rd, wr := energy.BankEnergy(e.bankBytes)
		out = append(out, Table4Row{
			Structure: e.structure,
			BankKB:    e.bankBytes >> 10,
			ReadPJ:    rd,
			WritePJ:   wr,
		})
	}
	return out
}
