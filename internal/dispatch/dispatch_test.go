package dispatch

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/banks"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/trace"
)

// fakeSource is a TraceSource for a grid of ctas x warpsPer warps, each
// warp running a trivial two-instruction trace. It records which warps
// were launched.
type fakeSource struct {
	*trace.Trace
	traced   [][2]int      // (cta, warp) pairs WarpCode was asked for
	variants []variantCall // WarpOutcomes requests
}

// variantCall is the bank-model variant of one WarpOutcomes request.
type variantCall struct {
	design     config.Design
	aggressive bool
}

func newFakeSource(ctas, warpsPer int) *fakeSource {
	t := &trace.Trace{CTAs: ctas, WarpsPerCTA: warpsPer}
	for range ctas * warpsPer {
		t.Warps = append(t.Warps, []isa.WarpInst{
			{Op: isa.OpALU, Mask: isa.FullMask},
			{Op: isa.OpEXIT, Mask: isa.FullMask},
		})
	}
	return &fakeSource{Trace: t}
}

func (s *fakeSource) WarpCode(cta, warp int) isa.WarpCode {
	s.traced = append(s.traced, [2]int{cta, warp})
	return s.Trace.WarpCode(cta, warp)
}

func (s *fakeSource) WarpOutcomes(cta, warp int, design config.Design, aggressive bool) []banks.Outcome {
	s.variants = append(s.variants, variantCall{design, aggressive})
	return s.Trace.WarpOutcomes(cta, warp, design, aggressive)
}

// readyAt reports whether warp w awaits promotion and its wake cycle.
func readyAt(d *Dispatcher, w int) (int64, bool) {
	return d.slots[w].WakeAt, d.Warp(w).Status == Ready
}

// newDispatcher builds a dispatcher hosting specs.
func newDispatcher(specs []StreamSpec, design config.Design, aggressive bool) (*Dispatcher, error) {
	d := new(Dispatcher)
	return d, d.Reset(specs, design, aggressive)
}

func newDisp(t *testing.T, ctas, warpsPer, resident int) (*Dispatcher, *fakeSource, *stats.Counters) {
	t.Helper()
	src := newFakeSource(ctas, warpsPer)
	c := &stats.Counters{}
	d, err := newDispatcher([]StreamSpec{{Source: src, ResidentCTAs: resident, Counters: c}}, config.Partitioned, false)
	if err != nil {
		t.Fatal(err)
	}
	return d, src, c
}

func TestNewValidation(t *testing.T) {
	c := &stats.Counters{}
	if _, err := newDispatcher([]StreamSpec{{Source: newFakeSource(1, 2), ResidentCTAs: 0, Counters: c}}, config.Partitioned, false); err == nil {
		t.Error("resident CTAs < 1 should fail")
	}
	if _, err := newDispatcher([]StreamSpec{{Source: newFakeSource(1, 0), ResidentCTAs: 2, Counters: c}}, config.Partitioned, false); err == nil {
		t.Error("zero warps per CTA should fail")
	}
	over := config.MaxWarpsPerSM + 1
	if _, err := newDispatcher([]StreamSpec{{Source: newFakeSource(1, over), ResidentCTAs: 1, Counters: c}}, config.Partitioned, false); err == nil {
		t.Error("oversubscribing the SM warp limit should fail")
	}
}

func TestStartLaunchesResidentCTAs(t *testing.T) {
	// Grid of 3 CTAs x 2 warps, 2 resident slots: Start launches CTAs 0
	// and 1, traces all four of their warps, and records the resident
	// thread high-water mark.
	d, src, c := newDisp(t, 3, 2, 2)
	d.Start(7)

	if d.liveWarps != 4 || d.Done() {
		t.Fatalf("LiveWarps = %d, Done = %v after Start; want 4, false", d.liveWarps, d.Done())
	}
	if want := [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}; len(src.traced) != 4 {
		t.Errorf("traced %v, want %v", src.traced, want)
	}
	if c.MaxResidentThreads != 2*2*isa.WarpSize {
		t.Errorf("MaxResidentThreads = %d, want %d", c.MaxResidentThreads, 2*2*isa.WarpSize)
	}
	if c.ThreadsRun != int64(2*2*isa.WarpSize) {
		t.Errorf("ThreadsRun = %d, want %d", c.ThreadsRun, 2*2*isa.WarpSize)
	}
	for i := 0; i < d.NumWarps(); i++ {
		wake, ok := readyAt(d, i)
		if !ok || wake != 7 {
			t.Errorf("warp %d readyAt = %d, %v; want 7, true", i, wake, ok)
		}
	}
	// Activation removes a warp from the ready pool.
	d.Activate(0)
	if _, ok := readyAt(d, 0); ok {
		t.Error("activated warp still reports ready")
	}
}

// TestLaunchAttachesTables: each launched warp carries the source's
// outcome table for the dispatcher's bank-model variant and its
// footprint table, and a dispatcher restored from a snapshot keeps the
// snapshot's tables.
func TestLaunchAttachesTables(t *testing.T) {
	newUnified := func() (*Dispatcher, *fakeSource) {
		src := newFakeSource(2, 2)
		d, err := newDispatcher([]StreamSpec{{Source: src, ResidentCTAs: 1, Counters: &stats.Counters{}}}, config.Unified, true)
		if err != nil {
			t.Fatal(err)
		}
		return d, src
	}
	d, src := newUnified()
	d.Start(0)
	for _, v := range src.variants {
		if v != (variantCall{config.Unified, true}) {
			t.Errorf("launch asked for outcomes under %v aggressive %v, want the dispatcher's unified aggressive variant", v.design, v.aggressive)
		}
	}
	if len(src.variants) != d.NumWarps() {
		t.Errorf("launch asked for %d outcome tables for %d warps", len(src.variants), d.NumWarps())
	}
	for i := 0; i < d.NumWarps(); i++ {
		w := d.Warp(i)
		if want := src.WarpOutcomes(0, i, config.Unified, true); len(w.Outcomes) != w.Code.Len() || !reflect.DeepEqual(w.Outcomes, want) {
			t.Errorf("warp %d: launched without its unified aggressive outcome table", i)
		}
		if !reflect.DeepEqual(w.Footprints, src.WarpFootprints(0, i)) {
			t.Errorf("warp %d: launched without its footprint table", i)
		}
	}
	fork, _ := newUnified()
	if err := fork.Restore(d.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.NumWarps(); i++ {
		if w, p := fork.Warp(i), d.Warp(i); &w.Outcomes[0] != &p.Outcomes[0] || w.Footprints != p.Footprints {
			t.Errorf("warp %d: Restore replaced the snapshot's tables", i)
		}
	}
}

func TestExitRotatesNextCTA(t *testing.T) {
	d, src, c := newDisp(t, 3, 2, 2)
	d.Start(0)

	// Retire CTA 0's warps (slots 0 and 1): the slot is refilled with grid
	// CTA 2, whose warps wake at the retirement cycle.
	d.Exit(0, 50)
	if c.CTAsRetired != 0 {
		t.Fatalf("CTAsRetired = %d before the CTA drained, want 0", c.CTAsRetired)
	}
	d.Exit(1, 60)
	if c.CTAsRetired != 1 {
		t.Errorf("CTAsRetired = %d, want 1", c.CTAsRetired)
	}
	if got := src.traced[len(src.traced)-1]; got != [2]int{2, 1} {
		t.Errorf("last traced warp = %v, want CTA 2 warp 1", got)
	}
	if wake, ok := readyAt(d, 0); !ok || wake != 60 {
		t.Errorf("rotated warp 0 readyAt = %d, %v; want 60, true", wake, ok)
	}
	if d.liveWarps != 4 {
		t.Errorf("LiveWarps = %d after rotation, want 4", d.liveWarps)
	}

	// Drain everything: grid exhausted, no further launches.
	for i := 0; i < 4; i++ {
		d.Exit(i, 100)
	}
	if !d.Done() || d.liveWarps != 0 {
		t.Errorf("Done = %v, LiveWarps = %d after draining the grid; want true, 0", d.Done(), d.liveWarps)
	}
	if c.CTAsRetired != 3 {
		t.Errorf("CTAsRetired = %d, want 3", c.CTAsRetired)
	}
	if c.ThreadsRun != int64(3*2*isa.WarpSize) {
		t.Errorf("ThreadsRun = %d, want all 3 CTAs launched", c.ThreadsRun)
	}
}

func TestBarrierReleasesOnLastArrival(t *testing.T) {
	d, _, _ := newDisp(t, 1, 3, 1)
	d.Start(0)
	for i := 0; i < 3; i++ {
		d.Activate(i)
	}

	d.Barrier(0, 10)
	d.Barrier(1, 11)
	if bar, _ := d.Counts(); bar != 2 {
		t.Fatalf("barrier count = %d after two arrivals, want 2", bar)
	}
	if _, ok := readyAt(d, 0); ok {
		t.Fatal("barrier-blocked warp reports ready before release")
	}

	// Last arrival releases the whole CTA at now+1 with PCs advanced past
	// the BAR instruction.
	d.Barrier(2, 12)
	bar, ready := d.Counts()
	if bar != 0 || ready != 3 {
		t.Fatalf("Counts = (%d barrier, %d ready) after release, want (0, 3)", bar, ready)
	}
	for i := 0; i < 3; i++ {
		if wake, ok := readyAt(d, i); !ok || wake != 13 {
			t.Errorf("warp %d readyAt = %d, %v; want 13, true", i, wake, ok)
		}
		if d.Warp(i).PC != 1 {
			t.Errorf("warp %d PC = %d, want 1 (advanced past BAR)", i, d.Warp(i).PC)
		}
	}
}

func TestEarlyExitReleasesBarrier(t *testing.T) {
	// Two warps wait at a barrier while the third exits instead of
	// arriving: the exit must release its CTA-mates or they deadlock.
	d, _, _ := newDisp(t, 1, 3, 1)
	d.Start(0)
	for i := 0; i < 3; i++ {
		d.Activate(i)
	}

	d.Barrier(0, 10)
	d.Barrier(1, 11)
	d.Exit(2, 20)

	bar, ready := d.Counts()
	if bar != 0 || ready != 2 {
		t.Fatalf("Counts = (%d barrier, %d ready) after early exit, want (0, 2)", bar, ready)
	}
	for i := 0; i < 2; i++ {
		if wake, ok := readyAt(d, i); !ok || wake != 21 {
			t.Errorf("warp %d readyAt = %d, %v; want 21, true", i, wake, ok)
		}
	}
	if d.liveWarps != 2 {
		t.Errorf("LiveWarps = %d, want 2", d.liveWarps)
	}
}

// bruteMinReady is MinReady by a scan of every warp slot.
func bruteMinReady(d *Dispatcher, now int64, stream int) (int, int64, bool) {
	best, bestWake := -1, int64(0)
	for i := 0; i < d.NumWarps(); i++ {
		wake := d.slots[i].WakeAt
		if d.Stream(i) != stream || d.Warp(i).Status != Ready || wake > now {
			continue
		}
		if best < 0 || wake < bestWake {
			best, bestWake = i, wake
		}
	}
	return best, bestWake, best >= 0
}

// bruteMinFutureWake is MinFutureWake by a scan of every warp slot.
func bruteMinFutureWake(d *Dispatcher, now int64) int64 {
	min := int64(1) << 62
	for i := 0; i < d.NumWarps(); i++ {
		if wake := d.slots[i].WakeAt; d.Warp(i).Status == Ready && wake > now && wake < min {
			min = wake
		}
	}
	return min
}

// TestWakeBoundMatchesBruteForce drives random launch, Park, Activate,
// Barrier, Exit and Restore sequences, on one stream and on a two-stream
// mix, and after every step requires MinReady and MinFutureWake to agree
// with a scan over all warps — the wake bound may only skip scans that
// could not have found anything.
func TestWakeBoundMatchesBruteForce(t *testing.T) {
	for _, streams := range []int{1, 2} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			specs := func() []StreamSpec {
				var sp []StreamSpec
				for s := 0; s < streams; s++ {
					src := newFakeSource(12, 2+s)
					sp = append(sp, StreamSpec{Source: src, ResidentCTAs: 2, Counters: &stats.Counters{}})
				}
				return sp
			}
			d, err := newDispatcher(specs(), config.Partitioned, false)
			if err != nil {
				t.Fatal(err)
			}
			now := int64(0)
			d.Start(now)
			check := func(step int, what string) {
				t.Helper()
				for s := 0; s < streams; s++ {
					gw, gk, gok := d.MinReady(now, s)
					ww, wk, wok := bruteMinReady(d, now, s)
					if gw != ww || gk != wk || gok != wok {
						t.Fatalf("streams %d seed %d step %d (%s): MinReady(%d, %d) = (%d, %d, %v), want (%d, %d, %v)",
							streams, seed, step, what, now, s, gw, gk, gok, ww, wk, wok)
					}
				}
				if got, want := d.MinFutureWake(now), bruteMinFutureWake(d, now); got != want {
					t.Fatalf("streams %d seed %d step %d (%s): MinFutureWake(%d) = %d, want %d",
						streams, seed, step, what, now, got, want)
				}
			}
			for step := 0; step < 2000 && !d.Done(); step++ {
				now += int64(rng.Intn(4))
				var active, ready []int
				for i := 0; i < d.NumWarps(); i++ {
					switch d.Warp(i).Status {
					case Active:
						active = append(active, i)
					case Ready:
						ready = append(ready, i)
					}
				}
				what := "idle"
				switch op := rng.Intn(10); {
				case op < 3: // promote the stream's oldest eligible warp
					if w, _, ok := d.MinReady(now, rng.Intn(streams)); ok {
						d.Activate(w)
						what = "promote"
					}
				case op < 4 && len(ready) > 0: // activate any Ready warp
					d.Activate(ready[rng.Intn(len(ready))])
					what = "activate"
				case op < 6 && len(active) > 0:
					d.Park(active[rng.Intn(len(active))], now+int64(rng.Intn(40)))
					what = "park"
				case op < 8 && len(active) > 0:
					d.Barrier(active[rng.Intn(len(active))], now)
					what = "barrier"
				case op < 9 && len(active) > 0:
					d.Exit(active[rng.Intn(len(active))], now) // may launch a CTA
					what = "exit"
				case streams == 1:
					fork, err := newDispatcher(specs(), config.Partitioned, false)
					if err != nil {
						t.Fatal(err)
					}
					if err := fork.Restore(d.Snapshot()); err != nil {
						t.Fatal(err)
					}
					d = fork
					what = "restore"
				}
				check(step, what)
			}
		}
	}
}
