package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// TestAblationFollowsRunnerScheduler renders the ablation on a gto
// Runner and checks every row against direct runs of both variants
// under gto: the aggressive side must keep the caller's scheduler, seed
// and energy model rather than fall back to the defaults.
func TestAblationFollowsRunnerScheduler(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry ablation skipped in -short mode")
	}
	r := core.NewRunner()
	r.Params.Scheduler = sched.GTO
	tab, err := Ablation(r)
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string][]string)
	for _, line := range strings.Split(strings.TrimSpace(tab.CSV()), "\n")[1:] {
		cells := strings.Split(line, ",")
		rows[cells[0]] = cells[1:]
	}
	agg := core.NewRunner()
	agg.Params = r.Params
	agg.Params.AggressiveScatter = true
	for _, k := range workloads.All() {
		cfg, err := config.AllocateMulti([]config.KernelRequirements{k.Requirements()}, config.BaselineTotalBytes, 0)
		if err != nil {
			t.Fatal(err)
		}
		simple, err := r.Run(core.RunSpec{Kernel: k, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		aggRes, err := agg.Run(core.RunSpec{Kernel: k, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		want := []string{
			fmt.Sprintf("%.4f", float64(simple.Counters.Cycles)/float64(aggRes.Counters.Cycles)),
			fmt.Sprint(simple.Counters.ConflictCycles),
			fmt.Sprint(aggRes.Counters.ConflictCycles),
		}
		if got := rows[k.Name]; strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: ablation row %v, want %v from gto/gto runs", k.Name, got, want)
		}
	}
}
