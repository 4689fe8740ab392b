// Command compare executes a declarative compare campaign: a JSON file
// naming N machine configurations, a workload list, and the metrics to
// diff against a baseline machine (see examples/campaigns/). It prints
// one side-by-side diff table per metric — values, percent deltas, and
// "!" flags where a delta crosses the campaign's regression threshold —
// followed by any paper-style comparison tables the campaign requests.
//
// By default the campaign's cells simulate locally, fanned out across
// -j workers; the output is byte-identical for every -j value. With
// -submit URL the campaign runs remotely instead, as a durable
// "compare" job on an smserve instance — and because both paths reduce
// each cell to the same losslessly round-tripped scalars, the remote
// tables are byte-identical to the local ones.
//
// -strict exits nonzero when any regression threshold is crossed
// (regressions are always listed on stderr), which is what makes a
// committed campaign file a CI gate.
//
// Examples:
//
//	compare -campaign examples/campaigns/paper-designs.json
//	compare -campaign examples/campaigns/scheduler-duel.json -strict
//	compare -campaign c.json -submit http://127.0.0.1:8344
//	compare -campaign c.json -md
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/api"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/parallel"
)

func main() {
	var (
		path      = flag.String("campaign", "", "campaign JSON file (required)")
		jobs      = flag.Int("j", runtime.NumCPU(), "parallel simulation workers (1 = serial)")
		md        = flag.Bool("md", false, "emit markdown tables with headings")
		submitURL = flag.String("submit", "", "run the campaign as an async compare job on this smserve base URL instead of simulating locally")
		strict    = flag.Bool("strict", false, "exit nonzero if any regression threshold is crossed")
	)
	flag.Parse()
	parallel.SetWorkers(*jobs)
	if *path == "" {
		fmt.Fprintln(os.Stderr, "compare: -campaign is required")
		os.Exit(2)
	}
	c, err := campaign.Load(*path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}

	start := time.Now()
	var res *campaign.Result
	if *submitURL != "" {
		res, err = submit(*submitURL, c)
	} else {
		res, err = c.Execute(core.NewRunner())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}

	for i, t := range res.Tables() {
		if *md {
			fmt.Printf("## %s\n\n%s\n", t.Title(), t.Markdown())
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(t)
	}
	fmt.Fprintf(os.Stderr, "compare: %s: %d cell(s) in %v\n",
		c.Spec.Name, len(c.Runs), time.Since(start).Round(time.Millisecond))

	regs := res.Regressions()
	for _, r := range regs {
		fmt.Fprintln(os.Stderr, "compare: regression:", r)
	}
	if *strict && len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "compare: %d regression(s) exceed thresholds\n", len(regs))
		os.Exit(1)
	}
}

// submit runs the campaign remotely as a durable compare job: submit,
// poll with progress lines on stderr, decode the final batch result.
func submit(baseURL string, c *campaign.Campaign) (*campaign.Result, error) {
	ctx := context.Background()
	cl := api.NewClient(baseURL)
	lastDone := -1
	br, err := cl.Compare(ctx, c.Spec, 300*time.Millisecond, func(j *api.Job) {
		if j.Progress.Done != lastDone {
			lastDone = j.Progress.Done
			fmt.Fprintf(os.Stderr, "compare: %s %d/%d cell(s) (cache %d, store %d)\n",
				j.State, j.Progress.Done, j.Progress.Total, j.Progress.CacheHits, j.Progress.StoreHits)
		}
	})
	if err != nil {
		return nil, err
	}
	return c.ResultFromBatch(br)
}
