// Command chipsim runs a benchmark across a multi-SM chip with a shared,
// channel-interleaved DRAM system — the full machine of the paper's
// Figure 1a — and compares per-SM behaviour against the single-SM
// methodology the paper uses (Section 5.1).
//
// Examples:
//
//	chipsim -kernel needle -sms 4
//	chipsim -kernel pcr -sms 8 -l2 768        # with a 768 KB chip L2
//	chipsim -streams needle+matrixmul -sms 4  # concurrent kernels, SMs partitioned
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/chip"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/occupancy"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/workloads"
)

// runMulti schedules several kernels concurrently across the chip's
// SMs (chip.New) and compares each SM against its kernel's
// single-SM methodology run.
func runMulti(spec string, sms, l2KB int, stagger int64) {
	names := strings.Split(spec, "+")
	if len(names) < 2 {
		fmt.Fprintf(os.Stderr, "chipsim: -streams wants at least two \"+\"-joined kernels, got %q\n", spec)
		os.Exit(2)
	}
	if sms < len(names) {
		fmt.Fprintf(os.Stderr, "chipsim: %d SMs cannot host %d concurrent kernels (raise -sms)\n", sms, len(names))
		os.Exit(2)
	}
	kernels := make([]*workloads.Kernel, len(names))
	for i, name := range names {
		k, err := workloads.ByName(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "chipsim:", err)
			os.Exit(2)
		}
		kernels[i] = k
	}
	mem := dram.DefaultSystemConfig(sms)
	mem.L2Bytes = l2KB << 10

	runner := core.NewRunner()
	multi := make([]chip.Kernel, len(kernels))
	for j, k := range kernels {
		// Kernel j owns ceil-or-floor(sms/K) SMs; deal it one grid per
		// owned SM, the same replication the single-kernel path uses.
		n := sms / len(kernels)
		if j < sms%len(kernels) {
			n++
		}
		occ := occupancy.ComputeShared([]config.KernelRequirements{k.Requirements()}, config.Baseline(), nil)[0]
		multi[j] = chip.Kernel{
			Name:         k.Name,
			Source:       &chip.Replicated{Source: &workloads.Source{K: k, Seed: 1}, Copies: n},
			ResidentCTAs: occ.CTAs,
		}
	}

	// Per-kernel single-SM references and the chip run are independent.
	singles := make([]*core.Result, len(kernels))
	var work []func() error
	for j, k := range kernels {
		work = append(work, func() error {
			var err error
			singles[j], err = runner.Baseline(k)
			return err
		})
	}
	var res *chip.Result
	work = append(work, func() error {
		machine, err := chip.New(chip.Config{NumSMs: sms, Mem: mem, LaunchStagger: stagger},
			config.Baseline(), runner.Params, multi...)
		if err != nil {
			return err
		}
		res, err = machine.Run()
		return err
	})
	if err := parallel.Do(work...); err != nil {
		fmt.Fprintln(os.Stderr, "chipsim:", err)
		os.Exit(1)
	}

	fmt.Printf("%s concurrent on a %d-SM chip (%d DRAM channels", spec, sms, mem.Channels)
	if l2KB > 0 {
		fmt.Printf(", %dKB L2", l2KB)
	}
	fmt.Print(")\n\n")

	singleOf := map[string]*core.Result{}
	for j, k := range kernels {
		singleOf[k.Name] = singles[j]
	}
	t := report.NewTable("Per-SM runtimes vs each kernel's single-SM methodology",
		"sm", "kernel", "cycles", "vs single-SM")
	for j, k := range kernels {
		t.AddRow("single-SM model", k.Name, fmt.Sprint(singles[j].Counters.Cycles), "1.00")
	}
	for i, c := range res.PerSM {
		name := res.PerSMKernel[i]
		t.AddRow(fmt.Sprintf("sm%d", i), name, fmt.Sprint(c.Cycles),
			report.Ratio(float64(c.Cycles)/float64(singleOf[name].Counters.Cycles)))
	}
	fmt.Print(t)
	fmt.Printf("\nchip runtime %d cycles; DRAM r=%dB w=%dB; out-of-order requests %d\n",
		res.Cycles, res.DRAMReadBytes, res.DRAMWriteBytes, res.OutOfOrder)
}

func main() {
	var (
		kernelName = flag.String("kernel", "", "benchmark name (see smsim -list)")
		streamSpec = flag.String("streams", "", "run several kernels concurrently, \"+\"-joined; the SMs are partitioned among them")
		sms        = flag.Int("sms", 4, "number of streaming multiprocessors")
		l2KB       = flag.Int("l2", 0, "optional shared chip L2 capacity in KB (0 = none, as in the paper)")
		stagger    = flag.Int64("stagger", 0, "per-SM launch stagger in cycles")
		jobs       = flag.Int("j", runtime.NumCPU(), "parallel simulation workers (1 = serial)")
	)
	flag.Parse()
	parallel.SetWorkers(*jobs)
	if *streamSpec != "" {
		runMulti(*streamSpec, *sms, *l2KB, *stagger)
		return
	}
	if *kernelName == "" {
		fmt.Fprintln(os.Stderr, "chipsim: -kernel is required")
		os.Exit(2)
	}
	k, err := workloads.ByName(*kernelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chipsim:", err)
		os.Exit(2)
	}

	// The single-SM reference (the paper's methodology) and the multi-SM
	// chip simulation are independent; run them concurrently.
	runner := core.NewRunner()
	mem := dram.DefaultSystemConfig(*sms)
	mem.L2Bytes = *l2KB << 10
	var single *core.Result
	var res *chip.Result
	err = parallel.Do(
		func() error {
			var err error
			single, err = runner.Baseline(k)
			return err
		},
		func() error {
			occ := occupancy.ComputeShared([]config.KernelRequirements{k.Requirements()}, config.Baseline(), nil)[0]
			src := &chip.Replicated{Source: &workloads.Source{K: k, Seed: 1}, Copies: *sms}
			machine, err := chip.New(chip.Config{NumSMs: *sms, Mem: mem, LaunchStagger: *stagger},
				config.Baseline(), runner.Params,
				chip.Kernel{Name: k.Name, Source: src, ResidentCTAs: occ.CTAs})
			if err != nil {
				return err
			}
			res, err = machine.Run()
			return err
		},
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chipsim:", err)
		os.Exit(1)
	}

	fmt.Printf("%s on a %d-SM chip (%d DRAM channels", k.Name, *sms, mem.Channels)
	if *l2KB > 0 {
		fmt.Printf(", %dKB L2", *l2KB)
	}
	fmt.Print(")\n\n")

	t := report.NewTable("Per-SM runtimes vs the single-SM methodology",
		"sm", "cycles", "vs single-SM")
	t.AddRow("single-SM model", fmt.Sprint(single.Counters.Cycles), "1.00")
	for i, c := range res.PerSM {
		t.AddRow(fmt.Sprintf("sm%d", i), fmt.Sprint(c.Cycles),
			report.Ratio(float64(c.Cycles)/float64(single.Counters.Cycles)))
	}
	fmt.Print(t)
	fmt.Printf("\nchip runtime %d cycles; DRAM r=%dB w=%dB; out-of-order requests %d\n",
		res.Cycles, res.DRAMReadBytes, res.DRAMWriteBytes, res.OutOfOrder)
}
