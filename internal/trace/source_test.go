package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/probe"
	"repro/internal/sm"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// designs lists every config.Design; with both scatter variants each
// they are the six bank-model variants.
var designs = []config.Design{config.Partitioned, config.Unified, config.FermiLike}

// TestTablesMatchSource: a recording, and a Write→Read copy of it,
// serve the same outcome tables, in every bank-model variant, and the
// same footprint tables as the live trace cache, warp for warp.
func TestTablesMatchSource(t *testing.T) {
	for _, tc := range []struct {
		kernel string
		regs   int
	}{{"needle", 0}, {"bfs", 12}, {"dgemm", 0}} {
		src := &workloads.Source{K: mustKernel(tc.kernel), RegsAvail: tc.regs, Seed: 1}
		rec := Record(src)
		var buf bytes.Buffer
		if err := Write(&buf, rec); err != nil {
			t.Fatal(err)
		}
		read, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		ctas, warps := src.Grid()
		for _, view := range []struct {
			name string
			tr   *Trace
		}{{"recorded", rec}, {"read", read}} {
			for c := range ctas {
				for w := range warps {
					for _, design := range designs {
						for _, aggressive := range []bool{false, true} {
							got, want := view.tr.WarpOutcomes(c, w, design, aggressive), src.WarpOutcomes(c, w, design, aggressive)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s -regs %d warp (%d, %d) design %v aggressive %v: %s outcomes differ from the source's",
									tc.kernel, tc.regs, c, w, design, aggressive, view.name)
							}
						}
					}
					if !reflect.DeepEqual(view.tr.WarpFootprints(c, w), src.WarpFootprints(c, w)) {
						t.Fatalf("%s -regs %d warp (%d, %d): %s footprints differ from the source's", tc.kernel, tc.regs, c, w, view.name)
					}
				}
			}
		}
	}
}

// TestReadSharesPrograms reads a recorded needle .trc: each warp reads
// back its recorded stream, and no two of the file's programs hold
// equal streams, so warps with equal streams share one program (and
// only they do, since each program is one stream) and the file holds
// as many distinct programs as the trace cache built for the source. A
// grid with two warps of equal streams under separate programs reads
// back with one.
func TestReadSharesPrograms(t *testing.T) {
	src := &workloads.Source{K: mustKernel("needle"), Seed: 1}
	rec := Record(src)
	tr := readBack(t, rec)
	if got, want := distinctPrograms(t, rec, tr), distinctPrograms(t, rec, rec); got != want {
		t.Errorf("file holds %d distinct programs, the source %d", got, want)
	}

	a := rec.Warps[0]
	b := Record(&workloads.Source{K: mustKernel("bfs"), Seed: 1}).Warps[0]
	mixed := &Trace{CTAs: 1, WarpsPerCTA: 3, Warps: []isa.WarpCode{a, b, isa.Split(a.AppendFlat(nil))}}
	if got := distinctPrograms(t, mixed, readBack(t, mixed)); got != 2 {
		t.Errorf("a grid of two distinct streams reads back with %d programs, want 2", got)
	}
}

// readBack writes tr to a .trc file and reads it again.
func readBack(t *testing.T, tr *Trace) *Trace {
	t.Helper()
	path := filepath.Join(t.TempDir(), "grid.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if f, err = os.Open(path); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := Read(f)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// distinctPrograms checks that each warp of got holds the stream of
// the same warp of want and that no two of got's programs hold equal
// streams, and returns how many programs got holds.
func distinctPrograms(t *testing.T, want, got *Trace) int {
	t.Helper()
	var progs []*isa.Program
	seen := make(map[*isa.Program]bool)
	for i, code := range got.Warps {
		if !slices.Equal(code.Prog.Insts, want.Warps[i].Prog.Insts) {
			t.Fatalf("warp %d: stream differs from the recording's", i)
		}
		if !seen[code.Prog] {
			seen[code.Prog] = true
			progs = append(progs, code.Prog)
		}
	}
	for i, p := range progs {
		for _, q := range progs[i+1:] {
			if slices.Equal(p.Insts, q.Insts) {
				t.Fatal("two programs hold equal streams")
			}
		}
	}
	return len(progs)
}

// TestWarpCodeRepeats: a trace serves each warp's stored code on every
// request, without converting or allocating, and serves no outcome
// table for a design outside the enum.
func TestWarpCodeRepeats(t *testing.T) {
	tr := buildTrace()
	for c := range tr.CTAs {
		for w := range tr.WarpsPerCTA {
			if tr.WarpCode(c, w) != tr.Warps[c*tr.WarpsPerCTA+w] {
				t.Fatalf("warp (%d, %d): WarpCode is not the stored code", c, w)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { tr.WarpCode(1, 2) }); n != 0 {
		t.Errorf("WarpCode allocates %v times per call, want 0", n)
	}
	if out := tr.WarpOutcomes(0, 0, config.FermiLike+1, false); out != nil {
		t.Errorf("unknown design served %d outcomes, want none", len(out))
	}
}

// TestConcurrentSMsShareTrace runs 8 SMs at once over one recording,
// probed and unprobed, which under -race checks that a recording and
// the tables it computes are safe to share; every run must match a run
// over the live source.
func TestConcurrentSMsShareTrace(t *testing.T) {
	src := &workloads.Source{K: mustKernel("needle"), Seed: 1}
	run := func(s sm.TraceSource, probed bool) (*stats.Counters, error) {
		spec := sm.Spec{Config: config.MemConfig{Design: config.Unified, RFBytes: 256 << 10, SharedBytes: 64 << 10, CacheBytes: 64 << 10}, Params: sm.DefaultParams(), Source: s, ResidentCTAs: 4}
		if probed {
			spec.Probe = probe.New(0, nil)
		}
		m, err := sm.NewSM(spec)
		if err != nil {
			return nil, err
		}
		return m.Run()
	}
	want, err := run(src, false)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record(src)
	const runs = 8
	got := make([]*stats.Counters, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(rec, i%2 == 1)
		}()
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if *got[i] != *want {
			t.Errorf("run %d: counters over the recording differ from the live source's", i)
		}
	}
}
