package campaign

import (
	"fmt"
	"strings"

	"repro/internal/report"
)

// metricDef is one diffable metric: how to extract it from an Outcome,
// how to format it, and which direction is better (for regression
// flagging).
type metricDef struct {
	name         string
	label        string
	higherBetter bool
	value        func(Outcome) float64
	format       func(float64) string
}

func intCell(v float64) string { return fmt.Sprint(int64(v)) }

// metricDefs is the metric vocabulary. int64 counters convert to
// float64 exactly at simulation magnitudes, so formatting through
// float64 loses nothing.
var metricDefs = []metricDef{
	{"ipc", "IPC", true,
		func(o Outcome) float64 { return o.IPC },
		func(v float64) string { return fmt.Sprintf("%.3f", v) }},
	{"cycles", "cycles", false,
		func(o Outcome) float64 { return float64(o.Cycles) }, intCell},
	{"dram", "dram bytes", false,
		func(o Outcome) float64 { return float64(o.DRAMBytes) }, intCell},
	{"energy", "energy (J)", false,
		func(o Outcome) float64 { return o.EnergyJ },
		func(v float64) string { return fmt.Sprintf("%.3e", v) }},
	{"conflict-cycles", "conflict cycles", false,
		func(o Outcome) float64 { return float64(o.ConflictCycles) }, intCell},
}

// DefaultMetrics are the diff tables of a campaign that names none.
var DefaultMetrics = []string{"ipc", "energy", "dram"}

// resolveMetrics maps metric names to their definitions.
func resolveMetrics(names []string) ([]metricDef, error) {
	if len(names) == 0 {
		names = DefaultMetrics
	}
	out := make([]metricDef, 0, len(names))
	for _, name := range names {
		found := false
		for _, d := range metricDefs {
			if d.name == name {
				out = append(out, d)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown metric %q (have %s)",
				name, strings.Join(metricNames(metricDefs), ", "))
		}
	}
	return out, nil
}

func metricNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
	}
	return names
}

// deltaPct is v's relative change from base in percent; ok is false
// when the baseline value cannot normalize (zero or NaN).
func deltaPct(base, v float64) (float64, bool) {
	if base == 0 || base != base || v != v {
		return 0, false
	}
	return 100 * (v - base) / base, true
}

// regressed reports whether a delta crosses the metric's threshold in
// its bad direction.
func (m metricDef) regressed(pct, threshold float64) bool {
	if threshold <= 0 {
		return false
	}
	if m.higherBetter {
		return pct < -threshold
	}
	return pct > threshold
}

// Regression is one threshold violation: a non-baseline machine whose
// metric is worse than the baseline by more than the campaign's
// tolerance.
type Regression struct {
	Metric   string
	Workload string
	Machine  string
	// DeltaPct is the relative change from the baseline in percent
	// (signed: negative means below baseline).
	DeltaPct float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s on %s: %+.1f%% vs baseline", r.Metric, r.Machine, r.Workload, r.DeltaPct)
}

// Tables renders the campaign: one diff table per metric (workload
// rows; baseline value column; value + delta columns per non-baseline
// machine, regressions flagged "!"), then its paper tables.
func (res *Result) Tables() []*report.Table {
	c := res.Campaign
	out := make([]*report.Table, 0, len(c.metrics)+len(c.tables))
	for _, m := range c.metrics {
		out = append(out, res.metricTable(m))
	}
	return append(out, res.PaperTables()...)
}

// PaperTables renders one paper-style comparison table per Tables entry
// of the spec, in order.
func (res *Result) PaperTables() []*report.Table {
	out := make([]*report.Table, len(res.Campaign.tables))
	for i, ts := range res.Campaign.tables {
		out[i] = res.paperTable(ts)
	}
	return out
}

// metricTable renders one metric across every machine.
func (res *Result) metricTable(m metricDef) *report.Table {
	c := res.Campaign
	header := []string{"workload", c.BaselineName()}
	for i, mc := range c.Spec.Machines {
		if i == c.Baseline {
			continue
		}
		header = append(header, mc.Name, "delta")
	}
	title := fmt.Sprintf("%s: %s (baseline %s)", c.Title(), m.label, c.BaselineName())
	t := report.NewTable(title, header...)
	threshold := c.Spec.Thresholds[m.name]
	cell := func(o Outcome) string {
		if o.Infeasible {
			return "infeasible"
		}
		return m.format(m.value(o))
	}
	for w, wl := range c.Workloads {
		base := res.Outcomes[c.Baseline][w]
		row := []string{wl.Label, cell(base)}
		for i := range c.Spec.Machines {
			if i == c.Baseline {
				continue
			}
			o := res.Outcomes[i][w]
			delta := "-"
			if !o.Infeasible && !base.Infeasible {
				if pct, ok := deltaPct(m.value(base), m.value(o)); ok {
					delta = fmt.Sprintf("%+.1f%%", pct)
					if m.regressed(pct, threshold) {
						delta += " !"
					}
				}
			}
			row = append(row, cell(o), delta)
		}
		t.AddRow(row...)
	}
	return t
}

// paperTable renders one machine against the campaign baseline with the
// Figure 7/9/10 columns. The ratios are the paper's normalization to the
// baseline run, computed from the exact round-tripped scalars, so a
// campaign spelling out the paper's designs reproduces the goldens byte
// for byte.
func (res *Result) paperTable(ts tableSpec) *report.Table {
	c := res.Campaign
	t := report.NewTable(ts.title,
		"benchmark", "perf (x)", "energy (x)", "dram (x)", "threads", "rf", "shared", "cache")
	for _, w := range ts.workloads {
		o := res.Outcomes[ts.machine][w]
		base := res.Outcomes[c.Baseline][w]
		if o.Infeasible || base.Infeasible {
			t.AddRow(c.Workloads[w].Label, "infeasible", "-", "-", "-", "-", "-", "-")
			continue
		}
		t.AddRow(c.Workloads[w].Label,
			report.Ratio(float64(base.Cycles)/float64(o.Cycles)),
			report.Ratio(o.EnergyJ/base.EnergyJ),
			report.Ratio(float64(o.DRAMBytes)/float64(base.DRAMBytes)),
			fmt.Sprint(o.Threads),
			report.KB(o.Config.RFBytes), report.KB(o.Config.SharedBytes), report.KB(o.Config.CacheBytes))
	}
	return t
}

// Regressions lists every threshold violation, in metric, workload,
// machine order.
func (res *Result) Regressions() []Regression {
	c := res.Campaign
	var out []Regression
	for _, m := range c.metrics {
		threshold := c.Spec.Thresholds[m.name]
		if threshold <= 0 {
			continue
		}
		for w, wl := range c.Workloads {
			base := res.Outcomes[c.Baseline][w]
			if base.Infeasible {
				continue
			}
			for i, mc := range c.Spec.Machines {
				if i == c.Baseline {
					continue
				}
				o := res.Outcomes[i][w]
				if o.Infeasible {
					continue
				}
				if pct, ok := deltaPct(m.value(base), m.value(o)); ok && m.regressed(pct, threshold) {
					out = append(out, Regression{
						Metric: m.name, Workload: wl.Label, Machine: mc.Name, DeltaPct: pct,
					})
				}
			}
		}
	}
	return out
}
