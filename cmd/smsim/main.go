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
//	smsim -trace vec.trc -resident 4             # replay a recorded trace (partitioned, -rf/-shm/-cache)
//	smsim -list                                  # show all benchmarks
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/plan"
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
	simulator.Release()
	if err != nil {
		fmt.Fprintln(os.Stderr, "smsim:", err)
		os.Exit(1)
	}
	fmt.Printf("replayed %s: %d CTAs x %d warps under %v\n", path, tr.CTAs, tr.WarpsPerCTA, cfg)
	fmt.Printf("cycles=%d insts=%d IPC=%.3f cacheHit=%s dram=%dB\n",
		c.Cycles, c.WarpInsts, c.IPC(), report.Percent(c.CacheHitRate()), c.DRAMBytes())
}

// replayRejects names the set flags a trace replay would not apply. A
// replay runs the partitioned design sized by -rf/-shm/-cache/-threads
// under -sched, so a derived design, its -total, a machine file, a
// registry kernel or stream mix, or a register budget would be reported
// as if it had run.
func replayRejects(fs *flag.FlagSet, design string) error {
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "design":
			if design != "partitioned" {
				bad = append(bad, "-design "+design)
			}
		case "total", "machine", "kernel", "streams", "regs":
			bad = append(bad, "-"+f.Name)
		}
	})
	if len(bad) > 0 {
		return fmt.Errorf("%s cannot be applied to -trace: a replay runs the partitioned design sized by -rf/-shm/-cache",
			strings.Join(bad, ", "))
	}
	return nil
}

func main() {
	rf := plan.AddFlags(flag.CommandLine)
	rf.AddMachineFlag(flag.CommandLine)
	var (
		emitMachine = flag.String("emit-machine", "", "write the default machine description to a JSON file and exit")
		traceFile   = flag.String("trace", "", "replay a recorded trace file instead of a registry kernel")
		resident    = flag.Int("resident", 4, "resident CTAs when replaying a trace (-trace)")
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
		if err := replayRejects(flag.CommandLine, rf.Design); err != nil {
			fmt.Fprintln(os.Stderr, "smsim:", err)
			os.Exit(2)
		}
		policy, err := sched.ParsePolicy(rf.Sched)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smsim:", err)
			os.Exit(2)
		}
		params := sm.DefaultParams()
		params.Scheduler = policy
		replayTrace(*traceFile, config.MemConfig{
			Design:      config.Partitioned,
			RFBytes:     rf.RFKB << 10,
			SharedBytes: rf.SharedKB << 10,
			CacheBytes:  rf.CacheKB << 10,
			MaxThreads:  rf.Threads,
		}, params, *resident)
		return
	}
	// Every other flag combination is one api.RunRequest, resolved and
	// simulated through internal/plan exactly as smserve would.
	req, err := rf.Request()
	if err != nil {
		fmt.Fprintln(os.Stderr, "smsim:", err)
		os.Exit(2)
	}
	run, err := plan.Resolve(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smsim:", err)
		os.Exit(1)
	}
	var runners plan.Runners
	res, err := runners.Simulate(context.Background(), run)
	var fit *core.FitError
	if errors.As(err, &fit) {
		what, hint := "residency", " or lower -regs/-threads"
		if len(run.Streams) > 1 {
			what, hint = "co-residency", ", raise -threads, or drop a stream"
		}
		fmt.Fprintf(os.Stderr, "smsim: %s cannot achieve %s of one CTA under %v: the binding resource is %v\n",
			fit.Kernel, what, fit.Config, fit.Limiter)
		fmt.Fprintf(os.Stderr, "smsim: raise that capacity (-rf/-shm/-cache/-total)%s\n", hint)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smsim:", err)
		os.Exit(1)
	}
	if len(run.Streams) > 1 {
		reportMix(res)
	} else {
		reportRun(run.Streams[0].Kernel, res)
	}
}

// reportMix prints a multi-tenant mix's joint report plus the
// per-stream attribution table.
func reportMix(res *core.Result) {
	c := res.Counters
	fmt.Printf("%s (%d streams co-resident)\n", core.StreamNames(res.Spec.Streams), len(res.Spec.Streams))
	fmt.Printf("configuration: %v  threads=%d (%d CTAs jointly resident)\n",
		res.Spec.Config, res.Occupancy.Threads, res.Occupancy.CTAs)
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

// reportRun prints a single-kernel run's full report.
func reportRun(k *workloads.Kernel, res *core.Result) {
	c := res.Counters
	fmt.Printf("%s (%s, %s)\n", k.Name, k.Suite, k.Description)
	fmt.Printf("configuration: %v  threads=%d (limited by %v, %d CTAs)\n",
		res.Spec.Config, res.Occupancy.Threads, res.Occupancy.Limiter, res.Occupancy.CTAs)
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
