package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// withWorkers runs f with the process-wide worker count pinned to n.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	old := int(defaultWorkers.Load())
	SetWorkers(n)
	defer defaultWorkers.Store(int64(old))
	f()
}

func TestMapOrdersResults(t *testing.T) {
	for _, w := range []int{1, 2, 8, 32} {
		withWorkers(t, w, func() {
			out, err := Map(100, func(i int) (int, error) { return i * i, nil })
			if err != nil {
				t.Fatalf("j=%d: %v", w, err)
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("j=%d: out[%d] = %d, want %d", w, i, v, i*i)
				}
			}
		})
	}
}

func TestMapReportsLowestError(t *testing.T) {
	// Several items fail; every worker count must report the lowest index,
	// exactly as a serial loop would.
	failAt := map[int]bool{17: true, 3: true, 64: true}
	for _, w := range []int{1, 2, 8} {
		withWorkers(t, w, func() {
			for trial := 0; trial < 20; trial++ {
				_, err := Map(100, func(i int) (int, error) {
					if failAt[i] {
						return 0, fmt.Errorf("item %d", i)
					}
					return i, nil
				})
				if err == nil || err.Error() != "item 3" {
					t.Fatalf("j=%d: got error %v, want item 3", w, err)
				}
			}
		})
	}
}

// TestMapRecoversPanics: on the serial and the worker paths, a panic in
// an item becomes that item's *PanicError (index, value, stack), and the
// lowest failing index wins whether it panicked or returned an error.
func TestMapRecoversPanics(t *testing.T) {
	for _, w := range []int{1, 4} {
		withWorkers(t, w, func() {
			for trial := 0; trial < 10; trial++ {
				_, err := Map(50, func(i int) (int, error) {
					switch i {
					case 7:
						panic(fmt.Sprintf("boom %d", i))
					case 30:
						return 0, errors.New("later error")
					case 40:
						var m map[int]int
						m[i] = i // a runtime panic, also recovered
					}
					return i, nil
				})
				var pe *PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("j=%d: error %v, want a *PanicError", w, err)
				}
				if pe.Index != 7 || pe.Value != "boom 7" || !strings.Contains(string(pe.Stack), "parallel") {
					t.Fatalf("j=%d: PanicError{Index: %d, Value: %v}, stack %d bytes; want item 7's",
						w, pe.Index, pe.Value, len(pe.Stack))
				}
				if want := "parallel: item 7 panicked: boom 7"; err.Error() != want {
					t.Fatalf("j=%d: message %q, want %q", w, err, want)
				}
			}
			// An error below the panicking index still wins.
			_, err := Map(20, func(i int) (int, error) {
				if i == 2 {
					return 0, errors.New("item 2")
				}
				if i == 9 {
					panic("late")
				}
				return i, nil
			})
			if err == nil || err.Error() != "item 2" {
				t.Fatalf("j=%d: got %v, want item 2", w, err)
			}
		})
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(0, func(i int) (int, error) { return 0, errors.New("never called") })
	if err != nil || out != nil {
		t.Fatalf("Map(0) = %v, %v", out, err)
	}
}

func TestMapSerialStopsAtFirstError(t *testing.T) {
	withWorkers(t, 1, func() {
		var ran atomic.Int64
		_, err := Map(10, func(i int) (int, error) {
			ran.Add(1)
			if i == 4 {
				return 0, errors.New("stop")
			}
			return i, nil
		})
		if err == nil {
			t.Fatal("want error")
		}
		if ran.Load() != 5 {
			t.Fatalf("serial path ran %d items, want 5 (stop at first error)", ran.Load())
		}
	})
}

func TestMapUsesMultipleGoroutines(t *testing.T) {
	withWorkers(t, 4, func() {
		var peak, cur atomic.Int64
		started := make(chan struct{}, 8)
		release := make(chan struct{})
		go func() {
			// Hold the first arrivals until all four workers are inside f.
			for i := 0; i < 4; i++ {
				<-started
			}
			close(release)
		}()
		_, err := Map(8, func(i int) (int, error) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			started <- struct{}{}
			<-release
			cur.Add(-1)
			return i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if peak.Load() != 4 {
			t.Fatalf("peak concurrency %d, want 4", peak.Load())
		}
	})
}

func TestDoAndForEach(t *testing.T) {
	withWorkers(t, 4, func() {
		var a, b atomic.Bool
		err := Do(
			func() error { a.Store(true); return nil },
			func() error { b.Store(true); return nil },
		)
		if err != nil || !a.Load() || !b.Load() {
			t.Fatalf("Do: err=%v a=%v b=%v", err, a.Load(), b.Load())
		}
		if err := Do(func() error { return errors.New("x") }); err == nil {
			t.Fatal("Do should propagate errors")
		}
	})
}

func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	withWorkers(t, 0, func() {
		if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
			t.Fatalf("Workers() = %d, want GOMAXPROCS %d", got, want)
		}
	})
	withWorkers(t, 7, func() {
		if Workers() != 7 {
			t.Fatalf("Workers() = %d, want 7", Workers())
		}
	})
}
