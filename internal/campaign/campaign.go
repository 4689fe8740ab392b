// Package campaign validates, compiles, executes, and renders
// declarative compare campaigns (api.CompareRequest): N named machine
// configurations evaluated over one workload list, diffed
// metric-by-metric against a baseline machine, with optional
// paper-style comparison tables and threshold-based regression
// highlighting.
//
// A campaign compiles to one machine-major list of api.RunRequests —
// the cells of the (machine x workload) matrix. The same compiled runs
// execute two ways with bit-identical outcomes: locally on the caller's
// core.Runner through parallel.Map (Execute), or remotely as a "compare"
// job whose result bytes are byte-identical to POST /v1/batch of the
// runs (ResultFromBatch). Rendering draws every scalar from exactly the
// fields that round-trip the JSON API losslessly (int64 counters,
// float64 totals), which is what makes the local CLI and the job API
// produce byte-identical tables — the same property the golden suite
// pins for the paper experiments.
//
// Campaigns are the repository's one comparison engine: cmd/compare runs
// campaign files, and internal/harness renders every paper experiment
// that simulates machines (validation excepted) from campaigns it builds
// under the caller's Runner, or from flat cell lists through RunCells,
// the executor behind Execute.
package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/api"
	"repro/internal/config"
	"repro/internal/plan"
	"repro/internal/workloads"
)

// Workload is one expanded campaign workload: a registry kernel plus
// the request fields that reproduce it server-side.
type Workload struct {
	// Label names the row in every table (the kernel name, or
	// "needle@BF" for explicit blocking-factor variants).
	Label string
	// Name and BF are the RunRequest fields addressing the kernel.
	Name string
	BF   int
	// Kernel is the resolved registry entry (nil for a mix).
	Kernel *workloads.Kernel
	// Streams holds the members of a multi-tenant mix workload
	// ("needle+matrixmul"): two or more single-kernel workloads that run
	// co-resident on one SM. Nil for single-kernel workloads.
	Streams []Workload
}

// tableSpec is a resolved CompareTable: indices instead of names.
type tableSpec struct {
	title     string
	machine   int
	workloads []int
}

// Campaign is a validated, compiled campaign.
type Campaign struct {
	// Spec is the validated request.
	Spec api.CompareRequest
	// Baseline is the index of the baseline machine in Spec.Machines.
	Baseline int
	// Workloads are the expanded campaign workloads, in listed order.
	Workloads []Workload
	// Runs are the compiled cells, machine-major: Runs[m*len(Workloads)+w]
	// is machine m under workload w. This is the batch a "compare" job
	// executes.
	Runs []api.RunRequest

	metrics []metricDef
	tables  []tableSpec
}

// workloadAliases expand to registry sets, in registry order.
var workloadAliases = map[string]func() []*workloads.Kernel{
	"all":        workloads.All,
	"benefit":    workloads.BenefitSet,
	"no-benefit": workloads.NoBenefitSet,
}

// parseWorkload resolves one workload entry: a set alias, a kernel
// name, "needle@BF", or a "+"-joined multi-tenant mix of those
// ("needle+matrixmul", "needle@64+bfs") — the same spelling the
// -streams CLI flags take.
func parseWorkload(entry string) ([]Workload, error) {
	if parts := strings.Split(entry, "+"); len(parts) > 1 {
		mix := Workload{Label: entry}
		for _, part := range parts {
			ws, err := parseWorkload(strings.TrimSpace(part))
			if err != nil {
				return nil, err
			}
			if len(ws) != 1 || ws[0].Streams != nil {
				return nil, fmt.Errorf("workload %q: mix members must be single kernels, not aliases or mixes", entry)
			}
			mix.Streams = append(mix.Streams, ws[0])
		}
		return []Workload{mix}, nil
	}
	if expand, ok := workloadAliases[entry]; ok {
		ks := expand()
		out := make([]Workload, len(ks))
		for i, k := range ks {
			out[i] = Workload{Label: k.Name, Name: k.Name, Kernel: k}
		}
		return out, nil
	}
	name, bf := entry, 0
	if at := strings.IndexByte(entry, '@'); at >= 0 {
		n, err := strconv.Atoi(entry[at+1:])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("workload %q: bad blocking factor (want e.g. \"needle@64\")", entry)
		}
		name, bf = entry[:at], n
	}
	if bf != 0 && name != "needle" {
		return nil, fmt.Errorf("workload %q: blocking factors apply to needle only", name)
	}
	k, err := plan.Kernel(name, bf)
	if err != nil {
		return nil, err
	}
	label := k.Name
	if bf != 0 {
		label = fmt.Sprintf("%s@%d", name, bf)
	}
	return []Workload{{Label: label, Name: name, BF: bf, Kernel: k}}, nil
}

// expandWorkloads expands and de-duplicates a workload list.
func expandWorkloads(entries []string, seen map[string]int, ordered *[]Workload) error {
	for _, entry := range entries {
		ws, err := parseWorkload(entry)
		if err != nil {
			return err
		}
		for _, w := range ws {
			if _, dup := seen[w.Label]; dup {
				return fmt.Errorf("workload %q appears twice (aliases overlap?)", w.Label)
			}
			seen[w.Label] = len(*ordered)
			*ordered = append(*ordered, w)
		}
	}
	return nil
}

// New validates a campaign spec and compiles its run matrix.
func New(spec api.CompareRequest) (*Campaign, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("campaign: missing \"name\"")
	}
	if len(spec.Machines) == 0 {
		return nil, fmt.Errorf("campaign %s: \"machines\" must list at least one machine", spec.Name)
	}
	c := &Campaign{Spec: spec, Baseline: -1}
	machineIdx := make(map[string]int, len(spec.Machines))
	for i, m := range spec.Machines {
		if m.Name == "" {
			return nil, fmt.Errorf("campaign %s: machines[%d]: missing \"name\"", spec.Name, i)
		}
		if _, dup := machineIdx[m.Name]; dup {
			return nil, fmt.Errorf("campaign %s: duplicate machine %q", spec.Name, m.Name)
		}
		machineIdx[m.Name] = i
		if m.AllocTotalKB > 0 && m.FermiTotalKB > 0 {
			return nil, fmt.Errorf("campaign %s: machine %q: at most one of alloc_total_kb and fermi_total_kb", spec.Name, m.Name)
		}
		if m.FermiTotalKB > 0 && m.FermiTotalKB<<10 <= config.BaselineRFBytes {
			return nil, fmt.Errorf("campaign %s: machine %q: fermi_total_kb must exceed the fixed %dKB register file", spec.Name, m.Name, config.BaselineRFBytes>>10)
		}
		if _, _, _, err := m.Machine.Resolve(); err != nil {
			return nil, fmt.Errorf("campaign %s: machine %q: %v", spec.Name, m.Name, err)
		}
	}
	base := spec.Baseline
	if base == "" {
		base = spec.Machines[0].Name
	}
	bi, ok := machineIdx[base]
	if !ok {
		return nil, fmt.Errorf("campaign %s: baseline %q is not a campaign machine", spec.Name, base)
	}
	c.Baseline = bi

	if len(spec.Workloads) == 0 {
		return nil, fmt.Errorf("campaign %s: \"workloads\" must list at least one workload or alias", spec.Name)
	}
	workloadIdx := make(map[string]int)
	if err := expandWorkloads(spec.Workloads, workloadIdx, &c.Workloads); err != nil {
		return nil, fmt.Errorf("campaign %s: %v", spec.Name, err)
	}

	var err error
	if c.metrics, err = resolveMetrics(spec.Metrics); err != nil {
		return nil, fmt.Errorf("campaign %s: %v", spec.Name, err)
	}
	for name := range spec.Thresholds {
		found := false
		for _, m := range c.metrics {
			if m.name == name {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("campaign %s: threshold for %q, which is not a selected metric (have %s)",
				spec.Name, name, strings.Join(metricNames(c.metrics), ", "))
		}
	}

	for i, ts := range spec.Tables {
		mi, ok := machineIdx[ts.Machine]
		if !ok {
			return nil, fmt.Errorf("campaign %s: tables[%d]: machine %q is not a campaign machine", spec.Name, i, ts.Machine)
		}
		resolved := tableSpec{machine: mi, title: ts.Title}
		if resolved.title == "" {
			resolved.title = fmt.Sprintf("%s vs %s", ts.Machine, spec.Machines[bi].Name)
		}
		if len(ts.Workloads) == 0 {
			for w := range c.Workloads {
				resolved.workloads = append(resolved.workloads, w)
			}
		} else {
			var subset []Workload
			if err := expandWorkloads(ts.Workloads, make(map[string]int), &subset); err != nil {
				return nil, fmt.Errorf("campaign %s: tables[%d]: %v", spec.Name, i, err)
			}
			for _, w := range subset {
				wi, ok := workloadIdx[w.Label]
				if !ok {
					return nil, fmt.Errorf("campaign %s: tables[%d]: workload %q is not in the campaign's workload list", spec.Name, i, w.Label)
				}
				resolved.workloads = append(resolved.workloads, wi)
			}
		}
		c.tables = append(c.tables, resolved)
	}

	// Compile the machine-major run matrix. A mix compiles to the
	// streams form; the campaign seed then rides on every stream (the
	// top-level seed field is mutually exclusive with streams).
	c.Runs = make([]api.RunRequest, 0, len(spec.Machines)*len(c.Workloads))
	for _, m := range spec.Machines {
		for _, w := range c.Workloads {
			rr := api.RunRequest{
				Machine:      m.Machine,
				AllocTotalKB: m.AllocTotalKB,
				FermiTotalKB: m.FermiTotalKB,
				TimeoutMS:    spec.TimeoutMS,
			}
			if len(w.Streams) > 0 {
				for _, member := range w.Streams {
					rr.Streams = append(rr.Streams, api.StreamRequest{
						Kernel: member.Name, BF: member.BF, Seed: spec.Seed,
					})
				}
			} else {
				rr.Kernel, rr.BF, rr.Seed = w.Name, w.BF, spec.Seed
			}
			c.Runs = append(c.Runs, rr)
		}
	}
	return c, nil
}

// Parse strictly decodes a campaign document and validates it. Unknown
// fields are errors, as everywhere else on the API surface.
func Parse(data []byte) (*Campaign, error) {
	var spec api.CompareRequest
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("campaign: %v", err)
	}
	return New(spec)
}

// Load reads, parses, and validates a campaign file.
func Load(path string) (*Campaign, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// Title is the campaign's display title (Title, or Name when unset).
func (c *Campaign) Title() string {
	if c.Spec.Title != "" {
		return c.Spec.Title
	}
	return c.Spec.Name
}

// BaselineName names the baseline machine.
func (c *Campaign) BaselineName() string { return c.Spec.Machines[c.Baseline].Name }

// Note is the one-line job description ("compare paper-designs (3
// machines x 26 workloads)").
func (c *Campaign) Note() string {
	return fmt.Sprintf("compare %s (%d machines x %d workloads)",
		c.Spec.Name, len(c.Spec.Machines), len(c.Workloads))
}
