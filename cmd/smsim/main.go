// Command smsim runs one benchmark kernel on the SM simulator under a
// chosen local-memory configuration and prints a full report: timing,
// occupancy, cache and DRAM behaviour, bank conflicts, and the energy
// breakdown.
//
// Examples:
//
//	smsim -kernel needle                         # baseline partitioned run
//	smsim -kernel needle -design unified         # §4.5-allocated unified run
//	smsim -kernel dgemm -rf 128 -shm 64 -cache 64 -regs 24
//	smsim -kernel bfs -sched gto                 # greedy-then-oldest scheduler
//	smsim -streams needle+matrixmul              # two kernels co-resident (multi-tenant)
//	smsim -streams bfs+nn -design unified        # jointly allocated unified mix
//	smsim -list                                  # show all benchmarks
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sm"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// replayTrace runs a recorded trace file directly on the SM simulator.
func replayTrace(path string, cfg config.MemConfig, params sm.Params, residentCTAs int) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smsim:", err)
		os.Exit(1)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smsim:", err)
		os.Exit(1)
	}
	simulator, err := sm.NewSM(sm.Spec{Config: cfg, Params: params, Source: tr, ResidentCTAs: residentCTAs})
	if err != nil {
		fmt.Fprintln(os.Stderr, "smsim:", err)
		os.Exit(1)
	}
	c, err := simulator.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "smsim:", err)
		os.Exit(1)
	}
	fmt.Printf("replayed %s: %d CTAs x %d warps under %v\n", path, tr.CTAs, tr.WarpsPerCTA, cfg)
	fmt.Printf("cycles=%d insts=%d IPC=%.3f cacheHit=%s dram=%dB\n",
		c.Cycles, c.WarpInsts, c.IPC(), report.Percent(c.CacheHitRate()), c.DRAMBytes())
}

func main() {
	var (
		kernelName  = flag.String("kernel", "", "benchmark name (see -list)")
		design      = flag.String("design", "partitioned", "partitioned | unified | fermi")
		rfKB        = flag.Int("rf", 256, "register file capacity in KB (partitioned design)")
		shmKB       = flag.Int("shm", 64, "shared memory capacity in KB (partitioned design)")
		cacheKB     = flag.Int("cache", 64, "cache capacity in KB (partitioned design)")
		totalKB     = flag.Int("total", 384, "total unified capacity in KB (unified/fermi designs)")
		threads     = flag.Int("threads", 0, "resident thread cap (0 = architectural limit)")
		regs        = flag.Int("regs", 0, "registers allocated per thread (0 = spill-free demand)")
		machineFile = flag.String("machine", "", "load a JSON machine description (overrides -rf/-shm/-cache and timing)")
		emitMachine = flag.String("emit-machine", "", "write the default machine description to a JSON file and exit")
		traceFile   = flag.String("trace", "", "replay a recorded trace file instead of a registry kernel")
		resident    = flag.Int("resident", 4, "resident CTAs when replaying a trace (-trace)")
		schedName   = flag.String("sched", "", "warp scheduler: twolevel (default) | gto")
		streams     = flag.String("streams", "", "run several kernels co-resident on one SM, \"+\"-joined (e.g. needle+matrixmul)")
		list        = flag.Bool("list", false, "list benchmarks and exit")
	)
	prof := profiling.AddFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "smsim:", err)
		os.Exit(1)
	}
	defer stopProf()

	policy, err := sched.ParsePolicy(*schedName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smsim:", err)
		os.Exit(2)
	}

	if *emitMachine != "" {
		if err := machine.Save(*emitMachine, machine.Default()); err != nil {
			fmt.Fprintln(os.Stderr, "smsim:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote the paper's default machine to %s\n", *emitMachine)
		return
	}
	if *list {
		t := report.NewTable("Benchmarks", "name", "suite", "category", "regs", "shm B/thr", "CTA", "grid")
		for _, k := range workloads.All() {
			t.AddRow(k.Name, k.Suite, k.Category.String(), fmt.Sprint(k.RegsNeeded),
				fmt.Sprintf("%.1f", k.SharedBytesPerThread()), fmt.Sprint(k.ThreadsPerCTA),
				fmt.Sprint(k.GridCTAs))
		}
		fmt.Print(t)
		return
	}
	if *traceFile != "" {
		params := sm.DefaultParams()
		params.Scheduler = policy
		replayTrace(*traceFile, config.MemConfig{
			Design:      config.Partitioned,
			RFBytes:     *rfKB << 10,
			SharedBytes: *shmKB << 10,
			CacheBytes:  *cacheKB << 10,
			MaxThreads:  *threads,
		}, params, *resident)
		return
	}
	if *streams != "" {
		kernels, err := parseStreams(*streams)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smsim:", err)
			os.Exit(2)
		}
		reqs := make([]config.KernelRequirements, len(kernels))
		for i, k := range kernels {
			reqs[i] = k.Requirements()
		}
		r := core.NewRunner()
		r.Params.Scheduler = policy
		var cfg config.MemConfig
		if *machineFile != "" {
			mcfg, params, eparams, err := machine.Load(*machineFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "smsim:", err)
				os.Exit(1)
			}
			cfg = mcfg
			r.Params = params
			if *schedName != "" {
				r.Params.Scheduler = policy
			}
			r.Energy.P = eparams
		} else {
			switch *design {
			case "partitioned":
				cfg = config.MemConfig{
					Design:      config.Partitioned,
					RFBytes:     *rfKB << 10,
					SharedBytes: *shmKB << 10,
					CacheBytes:  *cacheKB << 10,
					MaxThreads:  *threads,
				}
			case "unified":
				cfg, err = config.AllocateMulti(reqs, *totalKB<<10, *threads)
				if err != nil {
					fmt.Fprintln(os.Stderr, "smsim:", err)
					os.Exit(1)
				}
			case "fermi":
				cfg = config.ChooseFermiMulti(reqs, *totalKB<<10-config.BaselineRFBytes, *threads)
			default:
				fmt.Fprintf(os.Stderr, "smsim: unknown design %q\n", *design)
				os.Exit(2)
			}
		}
		runMixAndReport(r, kernels, cfg)
		return
	}
	if *kernelName == "" {
		fmt.Fprintln(os.Stderr, "smsim: -kernel is required (try -list)")
		os.Exit(2)
	}
	k, err := workloads.ByName(*kernelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smsim:", err)
		os.Exit(2)
	}

	var cfg config.MemConfig
	if *machineFile != "" {
		mcfg, params, eparams, err := machine.Load(*machineFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smsim:", err)
			os.Exit(1)
		}
		r := core.NewRunner()
		r.Params = params
		if *schedName != "" {
			r.Params.Scheduler = policy // the flag overrides the machine file
		}
		r.Energy.P = eparams
		runAndReport(r, k, mcfg, *regs)
		return
	}
	switch *design {
	case "partitioned":
		cfg = config.MemConfig{
			Design:      config.Partitioned,
			RFBytes:     *rfKB << 10,
			SharedBytes: *shmKB << 10,
			CacheBytes:  *cacheKB << 10,
			MaxThreads:  *threads,
		}
	case "unified":
		cfg, err = config.Allocate(k.Requirements(), *totalKB<<10, *threads)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smsim:", err)
			os.Exit(1)
		}
	case "fermi":
		cfg = config.ChooseFermi(k.Requirements(), *totalKB<<10-config.BaselineRFBytes, *threads)
	default:
		fmt.Fprintf(os.Stderr, "smsim: unknown design %q\n", *design)
		os.Exit(2)
	}

	r := core.NewRunner()
	r.Params.Scheduler = policy
	runAndReport(r, k, cfg, *regs)
}

// parseStreams resolves a "+"-joined kernel list ("needle+matrixmul")
// against the registry. At least two names make a multi-tenant mix.
func parseStreams(spec string) ([]*workloads.Kernel, error) {
	names := strings.Split(spec, "+")
	if len(names) < 2 {
		return nil, fmt.Errorf("-streams wants at least two \"+\"-joined kernels, got %q", spec)
	}
	kernels := make([]*workloads.Kernel, len(names))
	for i, name := range names {
		k, err := workloads.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		kernels[i] = k
	}
	return kernels, nil
}

// runMixAndReport executes a multi-tenant mix and prints the joint
// report plus the per-stream attribution table.
func runMixAndReport(r *core.Runner, kernels []*workloads.Kernel, cfg config.MemConfig) {
	specs := make([]core.StreamSpec, len(kernels))
	for i, k := range kernels {
		specs[i] = core.StreamSpec{Kernel: k}
	}
	res, err := r.Run(core.RunSpec{Config: cfg, Streams: specs})
	var fit *core.FitError
	if errors.As(err, &fit) {
		fmt.Fprintf(os.Stderr, "smsim: %s cannot achieve co-residency of one CTA under %v: the binding resource is %v\n",
			fit.Kernel, fit.Config, fit.Limiter)
		fmt.Fprintln(os.Stderr, "smsim: raise that capacity (-rf/-shm/-cache/-total), raise -threads, or drop a stream")
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smsim:", err)
		os.Exit(1)
	}

	c := res.Counters
	fmt.Printf("%s (%d streams co-resident)\n", core.StreamNames(res.Spec.Streams), len(kernels))
	fmt.Printf("configuration: %v  threads=%d (%d CTAs jointly resident)\n",
		cfg, res.Occupancy.Threads, res.Occupancy.CTAs)
	fmt.Println()

	joint := report.NewTable("Joint execution",
		"cycles", "warp insts", "IPC", "cache hit", "dram read", "dram write")
	joint.AddRow(fmt.Sprint(c.Cycles), fmt.Sprint(c.WarpInsts),
		fmt.Sprintf("%.3f", c.IPC()), report.Percent(c.CacheHitRate()),
		fmt.Sprintf("%d B", c.DRAMReadBytes), fmt.Sprintf("%d B", c.DRAMWriteBytes))
	fmt.Print(joint)
	fmt.Println()

	per := report.NewTable("Per-stream attribution (counters sum exactly to the joint run)",
		"stream", "CTAs", "threads", "limiter", "cycles", "warp insts", "IPC", "cache hit", "dram bytes")
	for _, st := range res.Streams {
		sc := st.Counters
		per.AddRow(st.Kernel, fmt.Sprint(st.Occupancy.CTAs), fmt.Sprint(st.Occupancy.Threads),
			fmt.Sprint(st.Occupancy.Limiter), fmt.Sprint(sc.Cycles), fmt.Sprint(sc.WarpInsts),
			fmt.Sprintf("%.3f", sc.IPC()), report.Percent(sc.CacheHitRate()),
			fmt.Sprint(sc.DRAMBytes()))
	}
	fmt.Print(per)
	fmt.Println()

	e := res.Energy
	en := report.NewTable("Energy (J, joint run)",
		"MRF", "ORF+LRF", "shared", "cache+tags", "other dyn", "leakage", "DRAM", "total")
	en.AddRow(fmt.Sprintf("%.2e", e.MRF), fmt.Sprintf("%.2e", e.ORF+e.LRF),
		fmt.Sprintf("%.2e", e.Shared), fmt.Sprintf("%.2e", e.Cache+e.Tags),
		fmt.Sprintf("%.2e", e.Other), fmt.Sprintf("%.2e", e.Leak),
		fmt.Sprintf("%.2e", e.DRAM), fmt.Sprintf("%.2e", e.Total()))
	fmt.Print(en)
}

// runAndReport executes the kernel and prints the full report.
func runAndReport(r *core.Runner, k *workloads.Kernel, cfg config.MemConfig, regs int) {
	res, err := r.Run(core.RunSpec{Kernel: k, Config: cfg, RegsPerThread: regs})
	var fit *core.FitError
	if errors.As(err, &fit) {
		fmt.Fprintf(os.Stderr, "smsim: %s cannot achieve residency of one CTA under %v: the binding resource is %v\n",
			fit.Kernel, fit.Config, fit.Limiter)
		fmt.Fprintln(os.Stderr, "smsim: raise that capacity (-rf/-shm/-cache/-total) or lower -regs/-threads")
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smsim:", err)
		os.Exit(1)
	}

	c := res.Counters
	fmt.Printf("%s (%s, %s)\n", k.Name, k.Suite, k.Description)
	fmt.Printf("configuration: %v  threads=%d (limited by %v, %d CTAs)\n",
		cfg, res.Occupancy.Threads, res.Occupancy.Limiter, res.Occupancy.CTAs)
	fmt.Println()

	perf := report.NewTable("Execution",
		"cycles", "warp insts", "IPC", "spill insts", "CTAs", "threads run")
	perf.AddRow(fmt.Sprint(c.Cycles), fmt.Sprint(c.WarpInsts),
		fmt.Sprintf("%.3f", c.IPC()), fmt.Sprint(c.SpillInsts),
		fmt.Sprint(c.CTAsRetired), fmt.Sprint(c.ThreadsRun))
	fmt.Print(perf)
	fmt.Println()

	mem := report.NewTable("Memory system",
		"cache probes", "hit rate", "dram read", "dram write", "dram accesses")
	mem.AddRow(fmt.Sprint(c.CacheProbes), report.Percent(c.CacheHitRate()),
		fmt.Sprintf("%d B", c.DRAMReadBytes), fmt.Sprintf("%d B", c.DRAMWriteBytes),
		fmt.Sprint(c.DRAMAccesses()))
	fmt.Print(mem)
	fmt.Println()

	fr := c.ConflictFractions()
	confl := report.NewTable("Bank conflicts (max accesses to one bank per instruction)",
		"<=1", "2", "3", "4", ">4", "arbitration")
	confl.AddRow(report.Percent(fr[0]), report.Percent(fr[1]), report.Percent(fr[2]),
		report.Percent(fr[3]), report.Percent(fr[4]), fmt.Sprint(c.ArbitrationConflicts))
	fmt.Print(confl)
	fmt.Println()

	regtab := report.NewTable("Register hierarchy accesses",
		"MRF reads", "MRF writes", "ORF", "LRF", "MRF fraction")
	regtab.AddRow(fmt.Sprint(c.MRFReads), fmt.Sprint(c.MRFWrites),
		fmt.Sprint(c.ORFReads+c.ORFWrites), fmt.Sprint(c.LRFReads+c.LRFWrites),
		report.Percent(c.MRFAccessFraction()))
	fmt.Print(regtab)
	fmt.Println()

	e := res.Energy
	en := report.NewTable("Energy (J)",
		"MRF", "ORF+LRF", "shared", "cache+tags", "other dyn", "leakage", "DRAM", "total")
	en.AddRow(fmt.Sprintf("%.2e", e.MRF), fmt.Sprintf("%.2e", e.ORF+e.LRF),
		fmt.Sprintf("%.2e", e.Shared), fmt.Sprintf("%.2e", e.Cache+e.Tags),
		fmt.Sprintf("%.2e", e.Other), fmt.Sprintf("%.2e", e.Leak),
		fmt.Sprintf("%.2e", e.DRAM), fmt.Sprintf("%.2e", e.Total()))
	fmt.Print(en)
}
