package core

import (
	"fmt"

	"repro/internal/chip"
	"repro/internal/config"
	"repro/internal/occupancy"
	"repro/internal/parallel"
	"repro/internal/workloads"
)

// This file implements the paper's extensions beyond the headline
// evaluation that are not machine-versus-machine comparisons (those run
// as internal/campaign campaigns):
//
//   - Section 4.4: per-kernel repartitioning of the unified memory across
//     a multi-kernel application (RunSequence). The write-through cache
//     means repartitioning moves no data — only tags are invalidated.
//   - Section 5.1: the single-SM methodology checked against a full
//     multi-SM chip (ValidateMethodology).

// SequenceStep is one kernel's outcome within a multi-kernel run.
type SequenceStep struct {
	Kernel string
	Config config.MemConfig
	Result *Result
}

// SequenceResult aggregates a Section 4.4 multi-kernel run.
type SequenceResult struct {
	Steps []SequenceStep
	// Cycles and Energy are summed across the kernels.
	Cycles int64
	Energy float64
}

// RunSequence runs kernels back to back, repartitioning the unified memory
// of totalBytes before each launch with the Section 4.5 algorithm. Because
// the cache is write-through, repartitioning between kernels has no dirty
// data to move; the cache starts cold for each kernel either way (kernels
// do not share data here), so no extra reconfiguration penalty is charged.
func (r *Runner) RunSequence(kernels []*workloads.Kernel, totalBytes int) (*SequenceResult, error) {
	out := &SequenceResult{}
	for _, k := range kernels {
		cfg, err := config.AllocateMulti([]config.KernelRequirements{k.Requirements()}, totalBytes, 0)
		if err != nil {
			return nil, fmt.Errorf("sequence: %s: %w", k.Name, err)
		}
		res, err := r.Run(RunSpec{Kernel: k, Config: cfg})
		if err != nil {
			return nil, err
		}
		out.Steps = append(out.Steps, SequenceStep{Kernel: k.Name, Config: cfg, Result: res})
		out.Cycles += res.Counters.Cycles
		out.Energy += res.Energy.Total()
	}
	return out, nil
}

// RunSequenceFixed runs the same kernels under one fixed configuration
// (the comparison point for RunSequence: a hard-partitioned machine must
// serve every kernel with the same split).
func (r *Runner) RunSequenceFixed(kernels []*workloads.Kernel, cfg config.MemConfig) (*SequenceResult, error) {
	out := &SequenceResult{}
	for _, k := range kernels {
		res, err := r.Run(RunSpec{Kernel: k, Config: cfg})
		if err != nil {
			return nil, fmt.Errorf("sequence: %s under %v: %w", k.Name, cfg, err)
		}
		out.Steps = append(out.Steps, SequenceStep{Kernel: k.Name, Config: cfg, Result: res})
		out.Cycles += res.Counters.Cycles
		out.Energy += res.Energy.Total()
	}
	return out, nil
}

// MethodologyRow compares the paper's single-SM methodology against a
// full multi-SM chip simulation for one benchmark (Section 5.1: "modeling
// a single SM, rather than the full chip, simplifies simulation without
// sacrificing accuracy").
type MethodologyRow struct {
	Benchmark string
	// SingleSMCycles is the standard single-SM simulation.
	SingleSMCycles int64
	// ChipMeanCycles is the mean per-SM runtime on an N-SM chip running
	// N copies of the grid against a shared, channel-interleaved DRAM
	// system with the same per-SM bandwidth share.
	ChipMeanCycles float64
	// Deviation is |chip/single - 1|.
	Deviation float64
}

// ValidateMethodology runs each kernel both ways and reports the per-SM
// runtime deviation of the full-chip simulation from the single-SM one.
// Each kernel's chip simulation is an independent parallel work item.
func (r *Runner) ValidateMethodology(kernels []*workloads.Kernel, nSMs int) ([]MethodologyRow, error) {
	return parallel.Map(len(kernels), func(i int) (MethodologyRow, error) {
		k := kernels[i]
		single, err := r.Baseline(k)
		if err != nil {
			return MethodologyRow{}, err
		}
		occ := occupancy.ComputeShared([]config.KernelRequirements{k.Requirements()}, config.Baseline(), nil)[0]
		rep := &chip.Replicated{Source: &workloads.Source{K: k, Seed: r.Seed}, Copies: nSMs}
		machine, err := chip.New(chip.Config{NumSMs: nSMs}, config.Baseline(), r.Params,
			chip.Kernel{Name: k.Name, Source: rep, ResidentCTAs: occ.CTAs})
		if err != nil {
			return MethodologyRow{}, fmt.Errorf("validate %s: %w", k.Name, err)
		}
		res, err := machine.Run()
		if err != nil {
			return MethodologyRow{}, fmt.Errorf("validate %s: %w", k.Name, err)
		}
		mean := 0.0
		for _, c := range res.PerSM {
			mean += float64(c.Cycles)
		}
		mean /= float64(len(res.PerSM))
		row := MethodologyRow{
			Benchmark:      k.Name,
			SingleSMCycles: single.Counters.Cycles,
			ChipMeanCycles: mean,
		}
		row.Deviation = mean/float64(single.Counters.Cycles) - 1
		if row.Deviation < 0 {
			row.Deviation = -row.Deviation
		}
		return row, nil
	})
}
