package campaign

import (
	"context"
	"fmt"

	"repro/api"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/stats"
)

// Outcome is one campaign cell's result, reduced to scalars that
// round-trip the JSON API losslessly: identical whether produced by a
// local core run or decoded from a service response. Every rendered
// number derives from these fields, so local and remote tables are
// byte-identical.
type Outcome struct {
	// Infeasible marks a cell whose configuration cannot fit even one
	// CTA (a 422 on the service side). Infeasible cells carry no other
	// data.
	Infeasible bool
	// Config is the resolved configuration the cell executed under.
	Config api.ConfigInfo
	// Threads is the admitted residency.
	Threads int
	// Cycles, DRAMBytes, and ConflictCycles are exact counter values.
	Cycles         int64
	DRAMBytes      int64
	ConflictCycles int64
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

// Execute runs every cell locally, fanned out across the parallel
// engine. Each cell resolves and simulates through internal/plan, the
// path the service takes for the same RunRequest. Results are
// deterministic and independent of the worker count. A cell whose
// configuration cannot fit the kernel settles as an infeasible Outcome;
// any other failure aborts the campaign.
func (c *Campaign) Execute() (*Result, error) {
	var runners plan.Runners
	flat, err := parallel.Map(len(c.Runs), func(i int) (Outcome, error) {
		label := c.Workloads[i%len(c.Workloads)].Label
		machineName := c.Spec.Machines[i/len(c.Workloads)].Name
		run, err := plan.Resolve(c.Runs[i])
		if err != nil {
			return Outcome{}, fmt.Errorf("%s under %s: %w", label, machineName, err)
		}
		res, err := runners.Simulate(context.Background(), run)
		if core.IsInfeasible(err) {
			return Outcome{Infeasible: true}, nil
		}
		if err != nil {
			return Outcome{}, fmt.Errorf("%s under %s: %w", label, machineName, err)
		}
		return outcomeOf(run.ConfigInfo(), res.Occupancy.Threads, res.Counters, res.Energy.Total()), nil
	})
	if err != nil {
		return nil, err
	}
	return c.result(flat), nil
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
			return nil, fmt.Errorf("campaign %s: %s under %s: %v", c.Spec.Name,
				c.Workloads[i%len(c.Workloads)].Label,
				c.Spec.Machines[i/len(c.Workloads)].Name, it.Error)
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
