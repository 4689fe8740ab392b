// Command paper regenerates the tables and figures of "Unifying Primary
// Cache, Scratch, and Register File Memories in a Throughput Processor"
// (MICRO 2012) from the simulator, printing each as a text table.
//
// Independent (kernel, config) simulations inside each experiment fan out
// across -j worker goroutines (default: all CPUs); the output is
// byte-identical for every -j value, and -j 1 runs the exact serial path.
//
// Examples:
//
//	paper                       # regenerate everything, all CPUs
//	paper -j 1 figure9 table6   # selected experiments, serial
//	paper -csv figure2          # machine-readable output
//	paper -md                   # markdown tables (EXPERIMENTS.measured.md)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/parallel"
	"repro/internal/profiling"
)

func main() {
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	md := flag.Bool("md", false, "emit markdown tables with headings (regenerates EXPERIMENTS.measured.md)")
	chart := flag.Bool("chart", false, "render capacity sweeps as ASCII charts (figure2/3/4/11)")
	jobs := flag.Int("j", runtime.NumCPU(), "parallel simulation workers (1 = serial)")
	prof := profiling.AddFlags(flag.CommandLine)
	flag.Parse()
	parallel.SetWorkers(*jobs)
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
	defer stopProf()

	if *csv && *md {
		fmt.Fprintln(os.Stderr, "paper: -csv and -md are mutually exclusive")
		os.Exit(2)
	}
	names := flag.Args()
	if len(names) == 0 {
		names = harness.Experiments
	}
	r := core.NewRunner()
	total := time.Now()
	if *md {
		// The preamble makes the generated file self-describing when
		// committed as EXPERIMENTS.measured.md.
		fmt.Println("# Measured results")
		fmt.Println()
		fmt.Println("Generated by `go run ./cmd/paper -md`; do not edit by hand.")
		fmt.Println("EXPERIMENTS.md is the annotated companion; CI diffs this file")
		fmt.Println("against a fresh regeneration (non-gating) to surface drift.")
		fmt.Println()
	}
	for _, name := range names {
		start := time.Now()
		if *chart {
			out, err := harness.Chart(r, name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "paper: %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Print(out)
			fmt.Fprintf(os.Stderr, "(%s charted in %v)\n", name, time.Since(start).Round(time.Millisecond))
			continue
		}
		t, err := harness.Run(r, name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paper: %s: %v\n", name, err)
			os.Exit(1)
		}
		switch {
		case *csv:
			fmt.Print(t.CSV())
		case *md:
			fmt.Printf("## %s\n\n%s\n", t.Title(), t.Markdown())
		default:
			fmt.Println(t)
		}
		// Timing goes to stderr so stdout stays byte-identical across
		// runs and -j values (and safe to redirect into golden files).
		fmt.Fprintf(os.Stderr, "(%s regenerated in %v)\n", name, time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "paper: %d experiment(s) in %v with %d worker(s)\n",
		len(names), time.Since(total).Round(time.Millisecond), parallel.Workers())
}
