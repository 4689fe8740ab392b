package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/workloads"
)

// TestRunCtxCancelledAborts pins the cancellation path: a context that
// is already cancelled stops the cycle loop at its first poll with the
// context's error, wrapped so errors.Is still sees it.
func TestRunCtxCancelledAborts(t *testing.T) {
	k, err := workloads.ByName("needle")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner()
	_, err = r.RunCtx(ctx, RunSpec{Kernel: k, Config: config.Baseline()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunCtxCompletedMatchesRun pins the "context only decides whether
// the run finishes" contract: a run completed under a live context
// returns counters identical to the context-free path.
func TestRunCtxCompletedMatchesRun(t *testing.T) {
	k, err := workloads.ByName("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Kernel: k, Config: config.Baseline()}
	plain, err := NewRunner().Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx, err := NewRunner().RunCtx(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Counters, withCtx.Counters) {
		t.Error("RunCtx counters differ from Run counters")
	}
	if plain.Energy != withCtx.Energy {
		t.Error("RunCtx energy differs from Run energy")
	}
}

// TestRunCtxBaselineSurvivesCancellation pins the caveat in RunCtx's
// doc: the energy-calibration baseline a cancelled run may have started
// is computed context-free, so a later run on the same Runner still
// gets a valid baseline rather than a memoized cancellation.
func TestRunCtxBaselineSurvivesCancellation(t *testing.T) {
	k, err := workloads.ByName("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	cfg, err := config.AllocateMulti([]config.KernelRequirements{k.Requirements()}, 384<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunCtx(ctx, RunSpec{Kernel: k, Config: cfg}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	if _, err := r.Run(RunSpec{Kernel: k, Config: cfg}); err != nil {
		t.Fatalf("run after cancelled run on same Runner: %v", err)
	}
}
