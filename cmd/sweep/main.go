// Command sweep runs custom sweeps for one benchmark and reports
// performance, DRAM traffic, and energy at each point.
//
// Capacity sweeps (-resource rf | shared | cache) vary one local-memory
// resource across a range — the generalization of the paper's Figures
// 2-4 to arbitrary benchmarks and ranges. Parameter sweeps (-resource
// mshr | dramlat | drambw) vary a timing parameter instead; because
// timing parameters do not alter the warm-up history, these sweeps warm
// one simulation prefix to the -warm cycle, snapshot it and fork the
// snapshot into every sweep point, paying the warm-up cost once (see
// sm.Snapshot). Sweep points run in parallel across -j workers;
// rows print in order regardless of worker count.
//
// The flags build one api.SweepRequest. Locally it expands, resolves,
// and simulates through internal/plan — the path smserve takes — so
// -submit URL prints a byte-identical table, energy included. -submit
// runs the sweep remotely: it submits the request as a durable async
// job to an smserve instance (POST /v1/jobs), reports progress while
// polling, and renders the table from the job's result. A server
// started with -data-dir persists every completed point, so an
// interrupted sweep resumes where it left off — even across server
// restarts.
//
// Examples:
//
//	sweep -kernel bfs -resource cache -from 32 -to 512 -step 2x
//	sweep -kernel dgemm -resource rf -from 64 -to 256 -step 64 -threads 1024
//	sweep -kernel needle -resource shared -from 16 -to 384 -step 2x -csv
//	sweep -kernel mummer -resource mshr -from 2 -to 32 -step 2x -warm 50000
//	sweep -kernel bfs -resource dramlat -from 200 -to 800 -step 100 -warm 20000
//	sweep -kernel bfs -resource cache -from 32 -to 512 -step 2x -submit http://127.0.0.1:8344
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/api"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/stats"
)

func main() {
	var (
		kernelName = flag.String("kernel", "", "benchmark name")
		resource   = flag.String("resource", "cache", "rf | shared | cache (capacity, KB) or mshr | dramlat | drambw (timing parameter)")
		from       = flag.Int("from", 32, "first value (KB for capacity resources)")
		to         = flag.Int("to", 512, "last value")
		step       = flag.String("step", "2x", "additive step (e.g. 64) or \"2x\" for doubling")
		threads    = flag.Int("threads", 0, "resident thread cap (0 = architectural limit)")
		jobs       = flag.Int("j", runtime.NumCPU(), "parallel simulation workers (1 = serial)")
		schedName  = flag.String("sched", "", "warp scheduler: twolevel (default) | gto")
		warmCycles = flag.Int64("warm", 0, "warm-prefix cycle for parameter sweeps: fork every point from one run warmed to this cycle")
		submitURL  = flag.String("submit", "", "submit the sweep as an async job to this smserve base URL instead of simulating locally")
		csv        = flag.Bool("csv", false, "emit CSV")
	)
	prof := profiling.AddFlags(flag.CommandLine)
	flag.Parse()
	parallel.SetWorkers(*jobs)
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	defer stopProf()
	policy, err := sched.ParsePolicy(*schedName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
	req := api.SweepRequest{
		Kernel:     *kernelName,
		Resource:   *resource,
		From:       *from,
		To:         *to,
		Step:       *step,
		WarmCycles: *warmCycles,
	}
	req.Machine.MaxThreads = *threads
	req.Machine.Timing.Scheduler = string(policy)
	// Expanding validates the request (its errors carry a "sweep:"
	// prefix) and fixes the points, whichever side simulates them.
	breq, _, err := plan.ExpandSweep(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	start := time.Now()
	where := fmt.Sprintf("with %d worker(s)", parallel.Workers())
	if *submitURL != "" {
		where = "via " + *submitURL
	}
	rows, err := sweepRows(req, breq, *submitURL)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}

	title := fmt.Sprintf("%s: performance vs %s", req.Kernel, req.Resource)
	firstCol := "value"
	if plan.IsParamAxis(req.Resource) {
		title += fmt.Sprintf(" (forked at cycle %d)", req.WarmCycles)
	} else {
		title += " capacity"
		firstCol = "capacity"
	}
	t := report.NewRunTable(title, firstCol)
	for _, row := range rows {
		t.AddRow(row...)
	}
	if *csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Print(t)
	}
	fmt.Fprintf(os.Stderr, "sweep: %d point(s) in %v %s\n",
		len(rows), time.Since(start).Round(time.Millisecond), where)
}

// sweepRows simulates an expanded sweep locally, or as a job on the
// smserve at submitURL when it is set, and returns one table row per
// point.
func sweepRows(req api.SweepRequest, breq api.BatchRequest, submitURL string) ([][]string, error) {
	labels := make([]string, len(breq.Runs))
	values, _ := req.Values()
	for i, v := range values {
		labels[i] = fmt.Sprint(v)
		if !plan.IsParamAxis(req.Resource) {
			labels[i] += "K"
		}
	}
	if submitURL != "" {
		return submitSweep(submitURL, req, labels)
	}
	return localSweep(breq, labels)
}

// row formats one sweep point's table row (warp IPC, as everywhere in
// the sweep tables). Local results and service responses both reduce
// to these fields, so the two paths print identical rows.
func row(label string, threads int, c *stats.Counters, energyJ float64) []string {
	return report.RunRow(label, threads, c.Cycles, c.IPC(), c.DRAMBytes(), energyJ)
}

// localSweep resolves the expanded sweep through internal/plan and
// simulates its points across the parallel engine.
func localSweep(breq api.BatchRequest, labels []string) ([][]string, error) {
	runs, err := plan.ResolveBatch(breq)
	if err != nil {
		return nil, err
	}
	var runners plan.Runners
	return parallel.Map(len(runs), func(i int) ([]string, error) {
		res, err := runners.Simulate(context.Background(), runs[i])
		if core.IsInfeasible(err) {
			return report.InfeasibleRunRow(labels[i]), nil
		}
		if err != nil {
			return nil, err
		}
		return row(labels[i], res.Occupancy.Threads, res.Counters, res.Energy.Total()), nil
	})
}

// submitSweep runs the sweep remotely as a durable async job on an
// smserve instance: submit, poll with progress lines on stderr, and
// decode the final result into table rows.
func submitSweep(baseURL string, req api.SweepRequest, labels []string) ([][]string, error) {
	ctx := context.Background()
	c := api.NewClient(baseURL)
	job, err := c.SubmitJob(ctx, api.JobRequest{Sweep: &req})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "sweep: submitted job %s (%s) to %s\n", job.ID, job.Note, baseURL)
	lastDone := -1
	job, err = c.WaitJob(ctx, job.ID, 300*time.Millisecond, func(j *api.Job) {
		if j.Progress.Done != lastDone {
			lastDone = j.Progress.Done
			fmt.Fprintf(os.Stderr, "sweep: %s %d/%d point(s) (cache %d, store %d)\n",
				j.State, j.Progress.Done, j.Progress.Total, j.Progress.CacheHits, j.Progress.StoreHits)
		}
	})
	if err != nil {
		return nil, err
	}
	if job.State != api.JobDone {
		return nil, fmt.Errorf("job %s finished %s: %v", job.ID, job.State, job.Error)
	}
	raw, err := c.JobResult(ctx, job.ID)
	if err != nil {
		return nil, err
	}
	var br api.BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		return nil, fmt.Errorf("decoding job result: %w", err)
	}
	items, err := br.Items()
	if err != nil {
		return nil, fmt.Errorf("decoding job result items: %w", err)
	}
	if len(items) != len(labels) {
		return nil, fmt.Errorf("job returned %d point(s), want %d", len(items), len(labels))
	}
	rows := make([][]string, len(items))
	for i, it := range items {
		switch {
		case it.Error != nil && it.Error.Code == api.CodeInfeasible:
			rows[i] = report.InfeasibleRunRow(labels[i])
		case it.Error != nil:
			return nil, fmt.Errorf("point %s failed: %v", labels[i], it.Error)
		default:
			r := it.Result
			rows[i] = row(labels[i], r.Occupancy.Threads, r.Counters, r.Energy.Total)
		}
	}
	return rows, nil
}
