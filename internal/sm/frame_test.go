package sm

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/config"
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
