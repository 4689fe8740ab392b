package sm

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/probe"
	"repro/internal/sched"
	"repro/internal/stats"
)

// TestReleasedSMFailsLoudly pins what Release leaves behind: the SM is
// spent, and every use of it fails the same way whatever ran on its
// frame since, so a stale reference can never step into another run's
// state. The frame's next owner runs exactly like a fresh SM.
func TestReleasedSMFailsLoudly(t *testing.T) {
	// One P hands the released frame to the next NewSM.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	src := funcSource(6, 4, randomKernel(7, 80))
	spec := Spec{Config: config.Baseline(), Params: DefaultParams(), Source: src, ResidentCTAs: 2}
	run := func() *SM {
		s, err := NewSM(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := run()
	want := ref.Finish()
	ref.Release()

	// The race detector's sync.Pool drops a quarter of the frames put
	// in it at random, so the scenario is retried until the released
	// frame reaches the next SM.
	var stale, next *SM
	for try := 0; next == nil; try++ {
		if try == 20 {
			t.Fatal("the next SM never took the released frame")
		}
		s, err := NewSM(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunTo(500); err != nil {
			t.Fatal(err)
		}
		fr := s.fr
		s.Release()
		s.Release() // a no-op: the frame must not enter the free list twice
		n, err := NewSM(spec)
		if err != nil {
			t.Fatal(err)
		}
		if n.fr != fr {
			n.Release()
			continue
		}
		stale, next = s, n
	}
	other, err := NewSM(spec)
	if err != nil {
		t.Fatal(err)
	}
	if other.fr == next.fr {
		t.Fatal("a frame released twice went to two SMs")
	}
	other.Release()

	check := func(when string) {
		t.Helper()
		if err := stale.Step(); !errors.Is(err, ErrReleased) {
			t.Errorf("%s: Step on a released SM = %v, want ErrReleased", when, err)
		}
		if _, err := stale.Run(); !errors.Is(err, ErrReleased) {
			t.Errorf("%s: Run on a released SM = %v, want ErrReleased", when, err)
		}
		if err := stale.RunTo(1 << 20); !errors.Is(err, ErrReleased) {
			t.Errorf("%s: RunTo on a released SM = %v, want ErrReleased", when, err)
		}
		if _, err := stale.Snapshot(); !errors.Is(err, ErrReleased) {
			t.Errorf("%s: Snapshot on a released SM = %v, want ErrReleased", when, err)
		}
		if err := stale.SetParams(DefaultParams()); !errors.Is(err, ErrReleased) {
			t.Errorf("%s: SetParams on a released SM = %v, want ErrReleased", when, err)
		}
		if stale.Done() {
			t.Errorf("%s: a released SM reports Done", when)
		}
		func() {
			defer func() {
				if r := recover(); r != ErrReleased {
					t.Errorf("%s: Finish on a released SM panicked with %v, want ErrReleased", when, r)
				}
			}()
			stale.Finish()
		}()
	}
	check("before the next run")
	if err := next.RunTo(300); err != nil {
		t.Fatal(err)
	}
	check("mid next run")
	if _, err := next.Run(); err != nil {
		t.Fatal(err)
	}
	check("after the next run")
	if got := next.Finish(); *got != *want {
		t.Errorf("the frame's next run differs from a fresh one:\ngot  %+v\nwant %+v", *got, *want)
	}
	next.Release()
}

// TestSnapshotOutlivesParentFrame: a snapshot is a copy of its parent's
// frame, not a view of it. A kernel is captured with dozens of fills in
// flight, and a fork taken then is the reference. The parent then
// releases its frame, and a bfs run takes the frame over and
// overwrites its warps, slots, tag store and pending table. A fork
// taken afterwards must finish on the reference's counters and,
// probed, write the reference's NDJSON bytes. vectoradd's coalesced
// loads merge into fills in flight, so it reads the pending table;
// matrixmul reuses cached tiles, so it reads the tag store.
func TestSnapshotOutlivesParentFrame(t *testing.T) {
	// One P hands the released frame to the next NewSM.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	other := readinessSpec(t, sched.TwoLevel, "bfs")
	runOther := func() *SM {
		s, err := NewSM(other)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunTo(60000); err != nil {
			t.Fatal(err)
		}
		return s
	}
	// A first bfs run grows the free frame's arrays past vectoradd's
	// needs, so a later bfs run overwrites the parent's in place.
	runOther().Release()
	for _, c := range []struct {
		kernel string
		probed bool
	}{{"vectoradd", false}, {"vectoradd", true}, {"matrixmul", false}, {"matrixmul", true}} {
		spec, probed := readinessSpec(t, sched.TwoLevel, c.kernel), c.probed
		attach := func(sp Spec, w io.Writer) Spec {
			if probed {
				sp.Probe = probe.New(2048, w)
			}
			return sp
		}
		// Forks are not released, so the parent's frame is the only one
		// the bfs run can take. The race detector's sync.Pool drops a
		// quarter of the frames put in it at random, so the scenario is
		// retried until the bfs run takes the parent's.
		fork := func(snap *Snapshot) (stats.Counters, []byte) {
			var ndjson bytes.Buffer
			f, err := Fork(attach(spec, &ndjson), snap)
			if err != nil {
				t.Fatal(err)
			}
			c, err := f.Run()
			if err != nil {
				t.Fatal(err)
			}
			return *c, ndjson.Bytes()
		}
		var snap *Snapshot
		var want stats.Counters
		var wantNDJSON []byte
		for try := 0; snap == nil; try++ {
			if try == 20 {
				t.Fatal("no bfs run took the parent's released frame")
			}
			parent, err := NewSM(attach(spec, io.Discard))
			if err != nil {
				t.Fatal(err)
			}
			if err := parent.RunTo(5000); err != nil {
				t.Fatal(err)
			}
			if n := parent.InFlightFills(); n < 16 {
				t.Fatalf("%s has %d fills in flight at the capture, want at least 16", c.kernel, n)
			}
			st, err := parent.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want, wantNDJSON = fork(st)
			fr := parent.fr
			parent.Release()
			s := runOther()
			if s.fr == fr {
				snap = st
			}
			s.Release()
		}
		got, gotNDJSON := fork(snap)
		if got != want {
			t.Errorf("%+v: a fork after the parent's frame was reused finished with\n%+v\nwant the earlier fork's\n%+v", c, got, want)
		}
		if !bytes.Equal(gotNDJSON, wantNDJSON) {
			t.Errorf("%+v: a fork after the parent's frame was reused wrote %d NDJSON bytes differing from the earlier fork's %d", c, len(gotNDJSON), len(wantNDJSON))
		}
		if probed && len(wantNDJSON) == 0 {
			t.Errorf("%+v: the probed forks wrote no NDJSON", c)
		}
	}
}
