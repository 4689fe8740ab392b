// Command smprof runs one benchmark kernel with the cycle-level probe
// attached and renders its execution profile: a stall-attribution table
// (where every lost issue slot went), a per-bank access/conflict
// heatmap, and interval sparklines showing how issue rate, cache hit
// rate, and DRAM traffic evolve over the run. It can also stream the
// raw NDJSON profile for external tooling.
//
// Examples:
//
//	smprof -kernel needle                        # baseline partitioned run
//	smprof -kernel bfs -design unified -total 384
//	smprof -streams needle+matrixmul             # multi-tenant mix with per-stream stalls
//	smprof -kernel dgemm -interval 2048          # finer phase sampling
//	smprof -kernel needle -ndjson needle.ndjson  # raw profile to a file
//	smprof -kernel needle -ndjson -              # raw profile to stdout
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/plan"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/workloads"
)

func main() {
	rf := plan.AddFlags(flag.CommandLine)
	var (
		interval = flag.Int64("interval", 0, "sampling interval in cycles (0 = default)")
		ndjson   = flag.String("ndjson", "", "stream the raw NDJSON profile to this file (\"-\" = stdout)")
		list     = flag.Bool("list", false, "list benchmarks and exit")
	)
	flag.Parse()

	if *list {
		t := report.NewTable("Benchmarks", "name", "suite", "category")
		for _, k := range workloads.All() {
			t.AddRow(k.Name, k.Suite, k.Category.String())
		}
		fmt.Print(t)
		return
	}
	// The flags spell one probed api.RunRequest, resolved and simulated
	// through internal/plan exactly as smserve would.
	req, err := rf.Request()
	if err != nil {
		fmt.Fprintln(os.Stderr, "smprof:", err)
		os.Exit(2)
	}
	req.Probe, req.ProbeIntervalCycles = true, *interval
	run, err := plan.Resolve(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smprof:", err)
		os.Exit(1)
	}

	var out io.Writer
	switch *ndjson {
	case "":
	case "-":
		out = os.Stdout
	default:
		f, err := os.Create(*ndjson)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smprof:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}

	p := probe.New(run.ProbeInterval, out)
	var runners plan.Runners
	res, err := runners.Simulate(context.Background(), run, core.WithProbe(p))
	var fit *core.FitError
	if errors.As(err, &fit) {
		fmt.Fprintf(os.Stderr, "smprof: %s cannot achieve residency of one CTA under %v: the binding resource is %v\n",
			fit.Kernel, fit.Config, fit.Limiter)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smprof:", err)
		os.Exit(1)
	}
	if err := p.WriteErr(); err != nil {
		fmt.Fprintln(os.Stderr, "smprof: writing NDJSON profile:", err)
		os.Exit(1)
	}

	// When NDJSON goes to stdout, keep the human report off it.
	if out == os.Stdout {
		return
	}
	fmt.Print(harness.FormatProfile(res, p))
}
