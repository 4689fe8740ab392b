// Package snapshot defines the copy-on-write image of a full SM
// simulation state, captured by sm.(*SM).Snapshot and consumed by
// sm.Fork. A sweep warms one SM to cycle K, snapshots it once, and forks
// the frozen State into N runs that diverge on timing parameters —
// instead of re-simulating N identical warm-up prefixes.
//
// # Shared versus copied
//
// A State is immutable once captured and safe to fork from concurrently,
// because every capture follows one rule: mutable simulator state is
// deep-copied, immutable state is shared.
//
// Deep-copied (the live simulator overwrites these in place):
//
//   - warp slots — PC, scoreboard, wake cycles, lifecycle status
//     (dispatch.State; the scoreboard is an array, so a value copy is
//     already deep);
//   - CTA slots, the grid launch cursor, and the ready bitmask;
//   - the scheduler's active list and policy cursor (sched.State);
//   - the cache tag store: tags, LRU ages, dirty bits (cache.State);
//   - the pending-line (MSHR) table (memsys.State). This one is the
//     cautionary example: put/del/evict mutate its open-addressed arrays
//     with backward-shift deletion, so an aliased table would leak MSHR
//     retirements between parent and forks;
//   - the DRAM channel's bus clock, row tracker, and tallies
//     (dram.State);
//   - the run counters and the probe's accumulated profile.
//
// Shared (immutable by contract, so forks alias them freely):
//
//   - per-warp instruction traces and memoized bank-conflict outcomes —
//     the workloads trace cache owns one copy process-wide;
//   - the kernel, trace source, and configuration values.
//
// # Prefix-defining versus divergable
//
// Forking means "switch parameters at cycle K": the fork replays the
// parent's exact prefix and continues under its own timing. Parameters
// that shaped the prefix — the memory configuration, kernel, seed,
// register budget, resident CTAs, scheduler policy, active-set size,
// and scatter variant — are prefix-defining: sm.Fork
// refuses a fork that disagrees on them, because the captured state
// would be meaningless under different values. Everything else (op
// latencies, the descheduling threshold, the MSHR bound, the DRAM
// configuration, the cache write policy) is divergable, and a fork at K
// with divergent values is bit-identical to a fresh run that switches
// those values in place at K — the equivalence internal/simtest pins.
package snapshot

import (
	"repro/internal/config"
	"repro/internal/dispatch"
	"repro/internal/dram"
	"repro/internal/memsys"
	"repro/internal/probe"
	"repro/internal/sched"
	"repro/internal/stats"
)

// State is one SM's frozen simulation state. Capture it with
// sm.(*SM).Snapshot; resume it with sm.Fork. A State is immutable: forks
// copy out of it, never into it, so any number of forks — including
// concurrent ones — can share one State.
type State struct {
	// Config is the local-memory configuration the state was captured
	// under (prefix-defining: forks must match it exactly).
	Config config.MemConfig
	// Aggressive pins the prefix-defining bank-model scatter variant.
	Aggressive bool

	// Cycle, SlotFreeAt, and Started are the timing core's clocks.
	Cycle      int64
	SlotFreeAt int64
	Started    bool

	// Counters are the run's event counters at the capture point.
	Counters stats.Counters

	// Sched, Disp, Mem, and DRAM are the component states.
	Sched sched.State
	Disp  *dispatch.State
	Mem   *memsys.State
	DRAM  dram.State

	// Probe is the observability state, nil for unprobed runs. A probed
	// snapshot must be forked with a probe restored via probe.Restore
	// (and vice versa: an unprobed snapshot forks unprobed).
	Probe *probe.State
}
