package harness

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/api"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/probe"
	"repro/internal/workloads"
)

// profileConfig is the baseline partitioned machine used by these tests.
var profileConfig = config.MemConfig{
	Design:      config.Partitioned,
	RFBytes:     config.BaselineRFBytes,
	SharedBytes: config.BaselineSharedBytes,
	CacheBytes:  config.BaselineCacheBytes,
}

// profiled is one run and the probe that observed it.
type profiled struct {
	res *core.Result
	p   *probe.Probe
}

// profile simulates kernel on the baseline machine with a probe of the
// given interval attached, the way cmd/smprof does: a probed
// api.RunRequest resolved and simulated through internal/plan.
func profile(rs *plan.Runners, kernel string, interval int64, ndjson io.Writer) (profiled, error) {
	run, err := plan.Resolve(api.RunRequest{Kernel: kernel, Probe: true, ProbeIntervalCycles: interval})
	if err != nil {
		return profiled{}, err
	}
	if run.Config != profileConfig {
		return profiled{}, fmt.Errorf("%s resolved to %v, want the baseline %v", kernel, run.Config, profileConfig)
	}
	p := probe.New(run.ProbeInterval, ndjson)
	res, err := rs.Simulate(context.Background(), run, core.WithProbe(p))
	if err != nil {
		return profiled{}, fmt.Errorf("%s: %w", kernel, err)
	}
	if werr := p.WriteErr(); werr != nil {
		return profiled{}, fmt.Errorf("%s: writing NDJSON profile: %w", kernel, werr)
	}
	return profiled{res, p}, nil
}

// TestProbeDoesNotPerturbRun pins the observability contract: attaching
// a probe must leave every simulation counter identical to an unprobed
// run. (The golden-table suite pins the no-probe output byte-for-byte;
// this closes the other half.)
func TestProbeDoesNotPerturbRun(t *testing.T) {
	for _, name := range []string{"needle", "bfs"} {
		r := core.NewRunner()
		k, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := core.RunSpec{Kernel: k, Config: profileConfig}
		plain, err := r.Run(spec)
		if err != nil {
			t.Fatalf("%s unprobed: %v", name, err)
		}
		probed, err := r.Run(spec, core.WithProbe(probe.New(0, nil)))
		if err != nil {
			t.Fatalf("%s probed: %v", name, err)
		}
		if !reflect.DeepEqual(plain.Counters, probed.Counters) {
			t.Errorf("%s: probe changed the run's counters:\nunprobed %+v\nprobed   %+v",
				name, plain.Counters, probed.Counters)
		}
		if plain.Energy != probed.Energy {
			t.Errorf("%s: probe changed the energy breakdown", name)
		}
	}
}

// TestProbeSlotsAccountForEveryCycle checks the attribution invariant on
// real runs: issued plus every stall category sums to the run's issue
// slots, and the interval series re-sums to the same totals.
func TestProbeSlotsAccountForEveryCycle(t *testing.T) {
	for _, name := range []string{"needle", "dgemm", "bfs"} {
		pr, err := profile(&plan.Runners{}, name, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, c := pr.p, pr.res.Counters
		covered := c.Cycles - p.StartCycle()
		// The final slot is inclusive when the run's last event is an
		// issue at the reported cycle, so allow covered or covered+1.
		if got := p.TotalSlots(); got != covered && got != covered+1 {
			t.Errorf("%s: TotalSlots = %d, want %d or %d (cycles=%d)",
				name, got, covered, covered+1, c.Cycles)
		}
		var issued int64
		var stalls [probe.NumStallReasons]int64
		for _, iv := range p.Intervals() {
			issued += iv.Issued
			for r, n := range iv.Stalls {
				stalls[r] += n
			}
		}
		if issued != p.Issued() || stalls != p.StallSlots() {
			t.Errorf("%s: interval series does not re-sum to the totals", name)
		}
		if issued != c.WarpInsts {
			t.Errorf("%s: probe issued %d, counters retired %d warp insts",
				name, issued, c.WarpInsts)
		}
	}
}

// TestProfileNDJSONRoundTrip streams a real run's profile and decodes it
// back with probe.Decode, checking the decoded stream agrees with the
// live probe.
func TestProfileNDJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	pr, err := profile(&plan.Runners{}, "needle", 2048, &buf)
	if err != nil {
		t.Fatal(err)
	}
	p := pr.p
	prof, err := probe.Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if prof.IntervalCycles != 2048 {
		t.Errorf("decoded interval = %d, want 2048", prof.IntervalCycles)
	}
	if prof.Annotations["kernel"] != "needle" {
		t.Errorf("kernel annotation = %q, want needle", prof.Annotations["kernel"])
	}
	if len(prof.Intervals) != len(p.Intervals()) {
		t.Fatalf("decoded %d intervals, want %d", len(prof.Intervals), len(p.Intervals()))
	}
	for i, iv := range p.Intervals() {
		if prof.Intervals[i] != iv {
			t.Fatalf("interval %d: decoded %+v, want %+v", i, prof.Intervals[i], iv)
		}
	}
	if prof.Summary == nil {
		t.Fatal("no summary record")
	}
	if prof.Summary.Slots != p.TotalSlots() || prof.Summary.Issued != p.Issued() ||
		prof.Summary.Stalls != p.StallSlots() {
		t.Errorf("decoded summary does not match the live probe")
	}
	acc, conf := p.BankHeat()
	if prof.Summary.BankAccess != acc || prof.Summary.BankConflict != conf {
		t.Errorf("decoded bank heat does not match the live probe")
	}
	if prof.Summary.CacheProbes != pr.res.Counters.CacheProbes {
		t.Errorf("summary cache probes = %d, want %d",
			prof.Summary.CacheProbes, pr.res.Counters.CacheProbes)
	}
}

// TestProbeParallelFanOut attaches a fresh probe to every run of an
// 8-worker fan-out — the pattern experiment drivers use — and checks
// each run's profile is self-consistent. Run under -race this also
// verifies probes introduce no shared mutable state across runs.
func TestProbeParallelFanOut(t *testing.T) {
	old := parallel.Workers()
	parallel.SetWorkers(8)
	defer parallel.SetWorkers(old)

	var rs plan.Runners
	kernels := []string{"needle", "bfs", "dgemm", "needle", "bfs", "dgemm", "needle", "bfs"}
	profs, err := parallel.Map(len(kernels), func(i int) (profiled, error) {
		return profile(&rs, kernels[i], 0, &bytes.Buffer{})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range profs {
		if pr.p.TotalSlots() == 0 || pr.p.Issued() == 0 {
			t.Errorf("run %d (%s): empty profile", i, kernels[i])
		}
		if pr.p.Issued() != pr.res.Counters.WarpInsts {
			t.Errorf("run %d (%s): issued %d != warp insts %d",
				i, kernels[i], pr.p.Issued(), pr.res.Counters.WarpInsts)
		}
	}
	// Identical kernels must produce identical profiles regardless of
	// which worker ran them.
	if profs[0].p.StallSlots() != profs[3].p.StallSlots() {
		t.Error("identical runs produced different stall breakdowns across workers")
	}
}

// TestFormatProfile sanity-checks the rendered report.
func TestFormatProfile(t *testing.T) {
	pr, err := profile(&plan.Runners{}, "needle", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatProfile(pr.res, pr.p)
	for _, want := range []string{
		"Stall attribution", "issued", "no ready warp", "total",
		"Bank heatmap", "Phases",
		fmt.Sprint(pr.p.TotalSlots()),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestFormatProfileOneStream checks that the report's header follows the
// stream count, not the spec's spelling: the one-entry stream list plan
// resolves a plain request to prints exactly the report of a run spelled
// with RunSpec.Kernel.
func TestFormatProfileOneStream(t *testing.T) {
	k, err := workloads.ByName("needle")
	if err != nil {
		t.Fatal(err)
	}
	p := probe.New(0, nil)
	plain, err := core.NewRunner().Run(core.RunSpec{Kernel: k, Config: profileConfig}, core.WithProbe(p))
	if err != nil {
		t.Fatal(err)
	}
	one, err := profile(&plan.Runners{}, "needle", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.res.Spec.Streams) != 1 || one.res.Spec.Kernel != nil {
		t.Fatalf("plan resolved a plain request to %d streams (kernel %v), want a one-entry stream list",
			len(one.res.Spec.Streams), one.res.Spec.Kernel)
	}
	want, got := FormatProfile(plain, p), FormatProfile(one.res, one.p)
	if !strings.Contains(want, "limited by") {
		t.Fatalf("single-kernel header missing its limiter:\n%s", want)
	}
	if got != want {
		t.Errorf("one-entry Streams report differs from the single-kernel report:\n got: %s\nwant: %s", got, want)
	}
}
