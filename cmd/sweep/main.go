// Command sweep runs custom sweeps for one benchmark and reports
// performance, DRAM traffic, and energy at each point.
//
// Capacity sweeps (-resource rf | shared | cache) vary one local-memory
// resource across a range — the generalization of the paper's Figures
// 2-4 to arbitrary benchmarks and ranges. Parameter sweeps (-resource
// mshr | dramlat | drambw) vary a timing parameter instead; because
// timing parameters do not alter the warm-up history, these sweeps warm
// one simulation prefix to the -warm cycle and fork it copy-on-write
// into every sweep point, paying the warm-up cost once (see
// internal/snapshot). Sweep points run in parallel across -j workers;
// rows print in order regardless of worker count.
//
// -submit URL runs the sweep remotely instead: it submits the sweep as
// a durable async job to an smserve instance (POST /v1/jobs), reports
// progress while polling, and renders the same table from the job's
// result. A server started with -data-dir persists every completed
// point, so an interrupted sweep resumes where it left off — even
// across server restarts.
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
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/occupancy"
	"repro/internal/parallel"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sm"
	"repro/internal/workloads"
)

// paramMutators maps the fork-compatible -resource names to their
// parameter mutation. Every axis here is divergable across a snapshot
// (sm.Fork); capacity resources are prefix-defining and sweep the slow
// way.
var paramMutators = map[string]func(*sm.Params, int){
	"mshr":    func(p *sm.Params, v int) { p.MaxMSHRs = v },
	"dramlat": func(p *sm.Params, v int) { p.DRAM.LatencyCycles = int64(v) },
	"drambw":  func(p *sm.Params, v int) { p.DRAM.BytesPerCycle = v },
}

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
	if *kernelName == "" {
		fmt.Fprintln(os.Stderr, "sweep: -kernel is required")
		os.Exit(2)
	}
	k, err := workloads.ByName(*kernelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
	next, err := api.ParseStep(*step)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
	mutate, isParam := paramMutators[*resource]
	switch {
	case isParam:
		// Parameter sweeps fork from the -warm prefix.
	case *resource == "rf" || *resource == "shared" || *resource == "cache":
		if *warmCycles != 0 {
			fmt.Fprintln(os.Stderr, "sweep: -warm needs a parameter resource (mshr | dramlat | drambw); capacities define the warm-up history and cannot be forked")
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "sweep: unknown resource %q\n", *resource)
		os.Exit(2)
	}

	if *submitURL != "" {
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
		if err := submitSweep(*submitURL, req, isParam, *csv); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		return
	}

	var values []int
	for v := *from; v <= *to; v = next(v) {
		values = append(values, v)
	}

	r := core.NewRunner()
	r.Params.Scheduler = policy
	cfg := config.MemConfig{
		Design:      config.Partitioned,
		RFBytes:     occupancy.FullOccupancyRFBytes(k.RegsNeeded),
		SharedBytes: core.UnboundedShared(k),
		CacheBytes:  config.BaselineCacheBytes,
		MaxThreads:  *threads,
	}
	start := time.Now()

	var rows [][]string
	if isParam {
		rows, err = paramSweep(r, k, cfg, values, mutate, *warmCycles)
	} else {
		rows, err = capacitySweep(r, k, cfg, values, *resource)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}

	title := fmt.Sprintf("%s: performance vs %s", k.Name, *resource)
	firstCol := "value"
	if !isParam {
		title += " capacity"
		firstCol = "capacity"
	} else {
		title += fmt.Sprintf(" (forked at cycle %d)", *warmCycles)
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
	fmt.Fprintf(os.Stderr, "sweep: %d point(s) in %v with %d worker(s)\n",
		len(values), time.Since(start).Round(time.Millisecond), parallel.Workers())
}

// resultRow formats one sweep point's table row (warp IPC, as
// everywhere in the sweep tables).
func resultRow(label string, res *core.Result) []string {
	return report.RunRow(label, res.Occupancy.Threads, res.Counters.Cycles,
		res.Counters.IPC(), res.Counters.DRAMBytes(), res.Energy.Total())
}

// capacitySweep runs one independent simulation per capacity point.
func capacitySweep(r *core.Runner, k *workloads.Kernel, base config.MemConfig, capacities []int, resource string) ([][]string, error) {
	return parallel.Map(len(capacities), func(i int) ([]string, error) {
		kb := capacities[i]
		cfg := base
		switch resource {
		case "rf":
			cfg.RFBytes = kb << 10
		case "shared":
			cfg.SharedBytes = kb << 10
		case "cache":
			cfg.CacheBytes = kb << 10
		}
		label := fmt.Sprintf("%dK", kb)
		res, err := r.Run(core.RunSpec{Kernel: k, Config: cfg})
		if core.IsInfeasible(err) {
			return report.InfeasibleRunRow(label), nil
		}
		if err != nil {
			return nil, err
		}
		return resultRow(label, res), nil
	})
}

// paramSweep warms one prefix to warmCycles and forks it into every
// parameter point. A warm cycle of 0 forks at launch — still one shared
// prefix, just a trivial one.
func paramSweep(r *core.Runner, k *workloads.Kernel, cfg config.MemConfig, values []int, mutate func(*sm.Params, int), warmCycles int64) ([][]string, error) {
	warm, err := r.Warm(context.Background(), core.RunSpec{Kernel: k, Config: cfg}, warmCycles)
	if core.IsInfeasible(err) {
		rows := make([][]string, len(values))
		for i, v := range values {
			rows[i] = report.InfeasibleRunRow(fmt.Sprint(v))
		}
		return rows, nil
	}
	if err != nil {
		return nil, err
	}
	return parallel.Map(len(values), func(i int) ([]string, error) {
		params := warm.Params
		mutate(&params, values[i])
		res, err := warm.Resume(context.Background(), r, params)
		if err != nil {
			return nil, err
		}
		return resultRow(fmt.Sprint(values[i]), res), nil
	})
}

// submitSweep runs the sweep remotely as a durable async job on an
// smserve instance: submit, poll with progress lines on stderr, fetch
// the final result, and render the same table the local path prints.
func submitSweep(baseURL string, req api.SweepRequest, isParam, csv bool) error {
	values, err := req.Values()
	if err != nil {
		return err
	}
	ctx := context.Background()
	c := api.NewClient(baseURL)
	start := time.Now()
	job, err := c.SubmitJob(ctx, api.JobRequest{Sweep: &req})
	if err != nil {
		return err
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
		return err
	}
	if job.State != api.JobDone {
		return fmt.Errorf("job %s finished %s: %v", job.ID, job.State, job.Error)
	}
	raw, err := c.JobResult(ctx, job.ID)
	if err != nil {
		return err
	}
	var br api.BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		return fmt.Errorf("decoding job result: %w", err)
	}
	items, err := br.Items()
	if err != nil {
		return fmt.Errorf("decoding job result items: %w", err)
	}
	if len(items) != len(values) {
		return fmt.Errorf("job returned %d point(s), want %d", len(items), len(values))
	}

	title := fmt.Sprintf("%s: performance vs %s", req.Kernel, req.Resource)
	firstCol := "value"
	if !isParam {
		title += " capacity"
		firstCol = "capacity"
	} else {
		title += fmt.Sprintf(" (forked at cycle %d)", req.WarmCycles)
	}
	t := report.NewRunTable(title, firstCol)
	for i, it := range items {
		label := fmt.Sprint(values[i])
		if !isParam {
			label = fmt.Sprintf("%dK", values[i])
		}
		switch {
		case it.Error != nil && it.Error.Code == api.CodeInfeasible:
			t.AddRow(report.InfeasibleRunRow(label)...)
		case it.Error != nil:
			return fmt.Errorf("point %s failed: %v", label, it.Error)
		default:
			t.AddRow(responseRow(label, it.Result)...)
		}
	}
	if csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Print(t)
	}
	fmt.Fprintf(os.Stderr, "sweep: %d point(s) in %v via %s\n",
		len(values), time.Since(start).Round(time.Millisecond), baseURL)
	return nil
}

// responseRow is resultRow for a service response: same columns, same
// formatting, so remote and local tables agree.
func responseRow(label string, r *api.RunResponse) []string {
	return report.RunRow(label, r.Occupancy.Threads, r.Counters.Cycles,
		r.Counters.IPC(), r.Counters.DRAMBytes(), r.Energy.Total)
}
