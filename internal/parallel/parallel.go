// Package parallel is the experiment execution engine: it fans
// independent (kernel, configuration) simulations out across a bounded
// pool of worker goroutines while guaranteeing results identical to a
// serial loop.
//
// Every simulation the experiment drivers run is independent — the SM
// timing model, trace generation, and energy evaluation share no mutable
// state between runs (internal/core's Runner serializes its baseline
// cache) — so the only thing parallel execution could change is ordering.
// Map removes that freedom: results are collected by item index, and on
// failure the error of the lowest failing index is returned, exactly the
// error a serial loop would have stopped at. A worker count of 1 runs the
// loop inline on the calling goroutine, recovering the precise serial
// execution path.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the process-wide worker count used by Map and Do.
// Zero means "not set": fall back to GOMAXPROCS at call time.
var defaultWorkers atomic.Int64

// SetWorkers sets the process-wide worker count (the -j flag of cmd/paper
// and cmd/sweep). n < 1 restores the default of GOMAXPROCS.
func SetWorkers(n int) {
	if n < 1 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Workers returns the current worker count.
func Workers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError is a panic recovered from one Map item: it becomes that
// item's error, so a bug in one simulation fails the item (and the call,
// by the lowest-index rule) instead of killing the process.
type PanicError struct {
	// Index is the item that panicked.
	Index int
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: item %d panicked: %v", e.Index, e.Value)
}

// call runs f(i), turning a panic into a *PanicError.
func call[T any](i int, f func(i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return f(i)
}

// Map runs f(i) for every i in [0, n) across Workers() goroutines and
// returns the results in index order.
//
// Error semantics match a serial loop: the returned error is the one from
// the lowest failing index. Items are dispatched in index order, so when
// item e fails, every item below e has already been dispatched and is
// allowed to finish; items not yet dispatched when a failure is recorded
// are skipped (a serial loop would never have reached them). The reported
// error is therefore independent of the worker count and of goroutine
// scheduling.
//
// With one worker (or n <= 1) Map runs inline on the calling goroutine
// and stops at the first error — the exact serial path. On either path a
// panic in f(i) is recovered and becomes item i's error, a *PanicError.
func Map[T any](n int, f func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			v, err := call(i, f)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			// The failure check precedes the claim: a claimed index always
			// runs. Claims are issued in index order, so every index below
			// a failing one has been claimed and will finish, making the
			// lowest recorded error the same one a serial loop stops at.
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := call(i, f)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ForEach is Map for functions with no result value.
func ForEach(n int, f func(i int) error) error {
	_, err := Map(n, func(i int) (struct{}, error) {
		return struct{}{}, f(i)
	})
	return err
}

// Do runs the given functions concurrently (each is one Map item) and
// returns the error of the lowest-indexed function that failed.
func Do(fns ...func() error) error {
	return ForEach(len(fns), func(i int) error { return fns[i]() })
}
