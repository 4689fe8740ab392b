package campaign

import (
	"fmt"

	"repro/api"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Outcome is one campaign cell's result, reduced to scalars that
// round-trip the JSON API losslessly: identical whether produced by a
// local core run or decoded from a service response. Every rendered
// number derives from these fields, so local and remote tables are
// byte-identical.
type Outcome struct {
	// Infeasible marks a cell whose configuration cannot fit even one
	// CTA, or whose §4.5 allocation fails (a 422 on the service side).
	// Infeasible cells carry no other data.
	Infeasible bool
	// Config is the resolved configuration the cell executed under.
	Config api.ConfigInfo
	// Threads is the admitted residency.
	Threads int
	// Cycles, DRAMBytes, and ConflictCycles are exact counter values.
	Cycles         int64
	DRAMBytes      int64
	ConflictCycles int64
	// ConflictHist is the per-instruction bank-conflict histogram
	// (stats.Counters.ConflictHist), the input of Table 5.
	ConflictHist [stats.ConflictBuckets]int64
	// IPC is thread instructions per cycle; EnergyJ total joules.
	IPC     float64
	EnergyJ float64
}

// outcomeOf reduces one run to its Outcome. Both execution paths funnel
// through this: locally from core.Result fields, remotely from the
// decoded RunResponse — the counters round-trip exactly, so the derived
// floats are bit-identical.
func outcomeOf(cfg api.ConfigInfo, threads int, cnt *stats.Counters, energyJ float64) Outcome {
	return Outcome{
		Config:         cfg,
		Threads:        threads,
		Cycles:         cnt.Cycles,
		DRAMBytes:      cnt.DRAMBytes(),
		ConflictCycles: cnt.ConflictCycles,
		ConflictHist:   cnt.ConflictHist,
		IPC:            cnt.ThreadIPC(),
		EnergyJ:        energyJ,
	}
}

// Result is an executed campaign: one Outcome per (machine, workload)
// cell.
type Result struct {
	Campaign *Campaign
	// Outcomes is indexed [machine][workload], matching
	// Campaign.Spec.Machines and Campaign.Workloads.
	Outcomes [][]Outcome
}

// Execute runs every cell locally on the caller's Runner r (RunCells)
// and shapes the outcomes into the (machine x workload) matrix.
func (c *Campaign) Execute(r *core.Runner) (*Result, error) {
	flat, err := RunCells(r, c.Runs, c.cellLabel)
	if err != nil {
		return nil, err
	}
	return c.result(flat), nil
}

// cellLabel names compiled cell i in error messages ("bfs under uni").
func (c *Campaign) cellLabel(i int) string {
	return fmt.Sprintf("%s under %s", c.Workloads[i%len(c.Workloads)].Label,
		c.Spec.Machines[i/len(c.Workloads)].Name)
}

// RunCells is the one local cell executor: every campaign and every
// paper experiment that compares machines runs its cells through it.
// Each request resolves through internal/plan, the path the service
// takes for the same RunRequest, and each distinct plan.Run.Key
// simulates once per call, fanned out across the parallel engine;
// cells that spell the same run share its Outcome. Two rules keep r's
// memoized work in use:
//
//   - A cell whose resolved timing and energy parameters equal r's,
//     compared in canonical form (plan.RunnerKey), runs on r; any other
//     cell runs on a Runner memoized for its own parameters.
//   - A cell that is its Runner's own calibration baseline reads
//     Runner.Baseline instead of simulating again.
//
// Outcomes are deterministic and independent of the worker count and
// of what r has cached. A cell whose configuration cannot fit the
// kernel, or whose §4.5 allocation fails, settles as an infeasible
// Outcome; any other failure aborts the call, naming the cell by
// label(i).
func RunCells(r *core.Runner, runs []api.RunRequest, label func(i int) string) ([]Outcome, error) {
	out := make([]Outcome, len(runs))
	resolved := make([]*plan.Run, len(runs))
	slot := make(map[string]int) // key -> its index in distinct
	var distinct []int           // the first cell of each key
	for i, req := range runs {
		run, err := plan.Resolve(req)
		if core.IsInfeasible(err) {
			out[i].Infeasible = true
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label(i), err)
		}
		resolved[i] = run
		if _, seen := slot[run.Key]; !seen {
			slot[run.Key] = len(distinct)
			distinct = append(distinct, i)
		}
	}
	var runners plan.Runners
	own := plan.RunnerKey(r.Params, r.Energy.P)
	ran, err := parallel.Map(len(distinct), func(n int) (Outcome, error) {
		run := resolved[distinct[n]]
		cr := r
		if run.RunnerKey() != own {
			cr = runners.Runner(run)
		}
		var res *core.Result
		var err error
		if k := calibration(run, cr); k != nil {
			res, err = cr.Baseline(k)
		} else {
			res, err = cr.Run(run.Spec())
		}
		if core.IsInfeasible(err) {
			return Outcome{Infeasible: true}, nil
		}
		if err != nil {
			return Outcome{}, fmt.Errorf("%s: %w", label(distinct[n]), err)
		}
		return outcomeOf(run.ConfigInfo(), res.Occupancy.Threads, res.Counters, res.Energy.Total()), nil
	})
	if err != nil {
		return nil, err
	}
	for i, run := range resolved {
		if run != nil {
			out[i] = ran[slot[run.Key]]
		}
	}
	return out, nil
}

// calibration returns the kernel whose Runner.Baseline run the cell is
// on cr — one stream under config.Baseline() with spill-free registers,
// cr's seed and no probe — or nil when it is any other run.
func calibration(run *plan.Run, cr *core.Runner) *workloads.Kernel {
	if len(run.Streams) != 1 || run.Config != config.Baseline() || run.Probe {
		return nil
	}
	st := run.Streams[0]
	if st.Regs != st.Kernel.RegsNeeded || st.Seed != cr.Seed {
		return nil
	}
	return st.Kernel
}

// ResultFromBatch decodes a campaign result from the batch response of
// its compiled runs — the remote half of Execute. Items keep the
// machine-major cell order.
func (c *Campaign) ResultFromBatch(br *api.BatchResponse) (*Result, error) {
	items, err := br.Items()
	if err != nil {
		return nil, fmt.Errorf("campaign %s: decoding batch items: %w", c.Spec.Name, err)
	}
	if len(items) != len(c.Runs) {
		return nil, fmt.Errorf("campaign %s: batch returned %d cells, want %d",
			c.Spec.Name, len(items), len(c.Runs))
	}
	flat := make([]Outcome, len(items))
	for i, it := range items {
		switch {
		case it.Error != nil && it.Error.Code == api.CodeInfeasible:
			flat[i] = Outcome{Infeasible: true}
		case it.Error != nil:
			return nil, fmt.Errorf("campaign %s: %s: %v", c.Spec.Name, c.cellLabel(i), it.Error)
		default:
			r := it.Result
			flat[i] = outcomeOf(r.Config, r.Occupancy.Threads, r.Counters, r.Energy.Total)
		}
	}
	return c.result(flat), nil
}

// result reshapes the flat machine-major outcomes into the cell matrix.
func (c *Campaign) result(flat []Outcome) *Result {
	out := &Result{Campaign: c, Outcomes: make([][]Outcome, len(c.Spec.Machines))}
	for m := range out.Outcomes {
		out.Outcomes[m] = flat[m*len(c.Workloads) : (m+1)*len(c.Workloads)]
	}
	return out
}
