package plan

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/api"
	"repro/internal/core"
	"repro/internal/sm"
)

// ResolveBatch canonicalizes a batch request's runs, wiring warm-prefix
// groups for warm_cycles. Every error is a client error; a batch of
// more than api.MaxRuns runs is refused before any run is resolved.
func ResolveBatch(req api.BatchRequest) ([]*Run, error) {
	if len(req.Runs) == 0 {
		return nil, fmt.Errorf("empty batch: \"runs\" must list at least one run")
	}
	if len(req.Runs) > api.MaxRuns {
		return nil, fmt.Errorf("batch of %d runs exceeds the limit of %d", len(req.Runs), api.MaxRuns)
	}
	if req.WarmCycles < 0 {
		return nil, fmt.Errorf("warm_cycles must be non-negative")
	}
	resolved := make([]*Run, len(req.Runs))
	groups := make(map[string]*warmGroup)
	for i, run := range req.Runs {
		r, err := Resolve(run)
		if err != nil {
			return nil, fmt.Errorf("runs[%d]: %w", i, err)
		}
		// Warm-prefix sharing: group prefix-compatible unprobed items.
		// Fork-at-K results differ from cycle-0 results, so the cache
		// key grows a warm suffix; probed items keep the exact path and
		// their plain key.
		if req.WarmCycles > 0 && !r.Probe && len(r.Streams) == 1 {
			gk := warmGroupKey(r, req.WarmCycles)
			g := groups[gk]
			if g == nil {
				g = &warmGroup{seed: r, cycles: req.WarmCycles}
				groups[gk] = g
			}
			r.warm = g
			r.WarmCycles = req.WarmCycles
			r.Key = Key(fmt.Appendf(nil, "%s\x00warm\x00%d", r.Key, req.WarmCycles))
		}
		resolved[i] = r
	}
	return resolved, nil
}

// warmGroup computes one prefix-defining group's warm prefix exactly
// once per batch. The prefix simulates under the group's prefix-defining
// parameters with default divergable timing, so a group's Warm — and
// therefore every forked result — is independent of which batch items
// formed the group.
type warmGroup struct {
	once   sync.Once
	seed   *Run // first group member; prefix-defining fields only
	cycles int64
	warm   *core.Warm
	err    error
}

// prefix returns (computing once) the group's warm prefix. It runs
// without any one member's context: the result is shared by every group
// member, so it must never memoize one caller's cancellation. timeout,
// when positive, bounds the work instead.
func (g *warmGroup) prefix(timeout time.Duration) (*core.Warm, error) {
	g.once.Do(func() {
		params := sm.DefaultParams()
		params.Scheduler = g.seed.Params.Scheduler
		params.ActiveWarps = g.seed.Params.ActiveWarps
		params.GreedyScheduler = g.seed.Params.GreedyScheduler
		params.AggressiveScatter = g.seed.Params.AggressiveScatter
		r := core.NewRunner()
		r.Params = params
		ctx := context.Background()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		g.warm, g.err = r.Warm(ctx, g.seed.Spec(), g.cycles)
	})
	return g.warm, g.err
}

// canonicalWarmGroup hashes the prefix-defining half of a resolved run:
// requests that agree on these fields share one warm prefix.
type canonicalWarmGroup struct {
	Kernel      string `json:"kernel"`
	BF          int    `json:"bf"`
	Design      string `json:"design"`
	RFKB        int    `json:"rf_kb"`
	SharedKB    int    `json:"shared_kb"`
	CacheKB     int    `json:"cache_kb"`
	MaxThreads  int    `json:"max_threads"`
	Regs        int    `json:"regs"`
	Seed        uint64 `json:"seed"`
	Scheduler   string `json:"scheduler"`
	ActiveWarps int    `json:"active_warps"`
	Greedy      bool   `json:"greedy"`
	Scatter     bool   `json:"scatter"`
	Cycles      int64  `json:"cycles"`
}

// warmGroupKey derives the prefix-defining group key for warm sharing
// of a single-stream run.
func warmGroupKey(r *Run, cycles int64) string {
	st := r.Streams[0]
	b, _ := json.Marshal(canonicalWarmGroup{
		Kernel:      st.Kernel.Name,
		BF:          st.Kernel.BF,
		Design:      r.canon.Design,
		RFKB:        r.canon.RFKB,
		SharedKB:    r.canon.SharedKB,
		CacheKB:     r.canon.CacheKB,
		MaxThreads:  r.canon.MaxThreads,
		Regs:        st.Regs,
		Seed:        st.Seed,
		Scheduler:   string(r.Params.Scheduler),
		ActiveWarps: r.Params.ActiveWarps,
		Greedy:      r.Params.GreedyScheduler,
		Scatter:     r.Params.AggressiveScatter,
		Cycles:      cycles,
	})
	return string(b)
}

// runnerCacheCap bounds the memoized Runner map.
const runnerCacheCap = 64

// Runners memoizes one core.Runner per distinct (timing, energy)
// parameter set, so baseline calibrations are shared across runs on the
// same machine, and simulates resolved runs on them. It is bounded like
// the trace cache: flushed entirely when it grows past runnerCacheCap
// (results never depend on Runner reuse, only on the spec). The zero
// value is ready to use and safe for concurrent use.
type Runners struct {
	// WarmTimeout bounds each shared warm-prefix computation (0 = no
	// bound). A prefix belongs to its whole group, so no single run's
	// context governs it.
	WarmTimeout time.Duration

	mu      sync.Mutex
	runners map[string]*core.Runner
}

// Runner returns (memoizing) the Runner for a resolved run's timing and
// energy parameters.
func (rs *Runners) Runner(r *Run) *core.Runner {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if cr, ok := rs.runners[r.runnerKey]; ok {
		return cr
	}
	if rs.runners == nil || len(rs.runners) >= runnerCacheCap {
		rs.runners = make(map[string]*core.Runner, runnerCacheCap)
	}
	cr := core.NewRunner()
	cr.Params = r.Params
	cr.Energy.P = r.Energy
	rs.runners[r.runnerKey] = cr
	return cr
}

// Simulate executes one resolved run. A run in a warm group forks the
// group's shared prefix under its own divergable timing; either way the
// energy calibration comes from the run's own Runner. opts apply to the
// direct path only: ResolveBatch never puts a probed run in a group.
func (rs *Runners) Simulate(ctx context.Context, r *Run, opts ...core.RunOption) (*core.Result, error) {
	if r.warm == nil {
		return rs.Runner(r).RunCtx(ctx, r.Spec(), opts...)
	}
	warm, err := r.warm.prefix(rs.WarmTimeout)
	if err != nil {
		return nil, err
	}
	return warm.Resume(ctx, rs.Runner(r), r.Params)
}
