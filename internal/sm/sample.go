package sm

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/banks"
	"repro/internal/dispatch"
	"repro/internal/isa"
	"repro/internal/sched"
	"repro/internal/stats"
)

// SampleSpec configures sampled simulation: alternate detailed windows
// of DetailedCycles cycles with functional fast-forwards of SkipCycles
// cycles. The zero value disables sampling (exact simulation).
//
// Sampled runs are approximate by design (Accel-Sim-style sampling):
// event counters stay exactly attributed — every instruction is executed
// and files its issue, conflict, register, cache, and DRAM-byte events,
// and the cache stays functionally warm — but timing inside a
// fast-forward collapses to flat latencies with no tag-port, MSHR, or
// DRAM-bus contention, so cycle counts (and anything derived from them,
// like IPC) carry a measured error bound. internal/harness reports that
// bound per workload; exact mode remains the default everywhere.
type SampleSpec struct {
	// DetailedCycles is the width W of each detailed window.
	DetailedCycles int64
	// SkipCycles is the span S fast-forwarded between windows.
	SkipCycles int64
}

// Enabled reports whether the spec requests sampling.
func (sp SampleSpec) Enabled() bool { return sp.DetailedCycles > 0 && sp.SkipCycles > 0 }

// String renders the spec in the flag syntax ParseSampleSpec accepts.
func (sp SampleSpec) String() string {
	return fmt.Sprintf("detailed=%d,skip=%d", sp.DetailedCycles, sp.SkipCycles)
}

// ParseSampleSpec parses the "-sample detailed=W,skip=S" flag syntax.
// The empty string yields a disabled spec.
func ParseSampleSpec(s string) (SampleSpec, error) {
	var sp SampleSpec
	if s == "" {
		return sp, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return sp, fmt.Errorf("sm: bad sample spec %q (want detailed=W,skip=S)", s)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil || n <= 0 {
			return sp, fmt.Errorf("sm: bad sample spec %q: %s must be a positive integer", s, key)
		}
		switch key {
		case "detailed":
			sp.DetailedCycles = n
		case "skip":
			sp.SkipCycles = n
		default:
			return sp, fmt.Errorf("sm: bad sample spec %q: unknown key %q", s, key)
		}
	}
	if !sp.Enabled() {
		return sp, fmt.Errorf("sm: sample spec %q needs both detailed=W and skip=S", s)
	}
	return sp, nil
}

// RunSampled executes the grid in sampled mode: detailed windows of
// sp.DetailedCycles cycles alternate with functional fast-forwards of
// sp.SkipCycles cycles until the grid completes. A disabled spec
// degrades to the exact RunContext path. The context is polled on the
// RunContext stride inside both the detailed windows and the
// fast-forward loops, so a deadline bounds sampled runs the same way it
// bounds exact ones.
//
// Probes require exact runs: their stall attribution must cover every
// issue slot, which a fast-forward skips past.
func (s *SM) RunSampled(ctx context.Context, sp SampleSpec) (*stats.Counters, error) {
	if !sp.Enabled() {
		return s.RunContext(ctx)
	}
	if s.prof != nil {
		return nil, fmt.Errorf("sm: sampled mode cannot attach a probe (stall attribution needs exact runs)")
	}
	if len(s.streams) > 1 {
		return nil, fmt.Errorf("sm: sampled mode does not support multi-tenant streams")
	}
	poll := ctx != nil && ctx.Done() != nil
	s.Start()
	budget := ctxCheckInterval
	for !s.Done() {
		windowEnd := s.cycle + sp.DetailedCycles
		for !s.Done() && s.cycle < windowEnd {
			if err := s.Step(); err != nil {
				return nil, err
			}
			if budget--; budget == 0 {
				budget = ctxCheckInterval
				if poll && ctx.Err() != nil {
					return nil, ctx.Err()
				}
			}
		}
		if s.Done() {
			break
		}
		if err := s.fastForward(ctx, s.cycle+sp.SkipCycles, &budget); err != nil {
			return nil, err
		}
	}
	return s.Finish(), nil
}

// fastForward advances the SM to the target cycle functionally: every
// warp executes its instruction stream in slot order with exact event
// accounting (replayed bank outcomes, functional cache warming via the
// memsys Fast paths) but approximate timing — flat latencies, one
// virtual issue slot per warp, no structural contention. Barriers and
// CTA rotation run through the dispatcher as usual, so warp lifecycle
// state stays exact. The context poll budget is shared with the caller:
// cancellation fires inside long fast-forwards on the same stride as
// everywhere else (the RunContext contract).
func (s *SM) fastForward(ctx context.Context, until int64, budget *int) error {
	poll := ctx != nil && ctx.Done() != nil
	// Drain the active set: fast-forward operates purely on dispatch
	// state, and Refill rebuilds the set when detailed simulation
	// resumes. Each warp parks at the cycle it could next issue.
	s.sched.Walk(func(wIdx int) sched.Action {
		w := s.disp.Warp(wIdx)
		wake := s.cycle
		if w.NextIssue > wake {
			wake = w.NextIssue
		}
		s.disp.Park(wIdx, wake)
		return sched.Deschedule
	})

	start := s.cycle
	issued := int64(0)
	maxLocal := start
	// Sampled runs are single-stream, so stream 0's books take every
	// event.
	c := &s.streams[0]
	dramBytes0 := c.DRAMBytes()
	n := s.disp.NumWarps()
	for {
		progressed := false
		for wIdx := 0; wIdx < n; wIdx++ {
			w := s.disp.Warp(wIdx)
			if w.Status != dispatch.Ready || w.WakeAt >= until {
				continue
			}
			now := w.WakeAt
			if now < start {
				now = start
			}
			s.disp.Activate(wIdx)
			issuedHere, end, err := s.runWarpFast(ctx, poll, wIdx, now, until, budget)
			issued += issuedHere
			if end > maxLocal {
				maxLocal = end
			}
			if err != nil {
				return err
			}
			progressed = true
		}
		if !progressed {
			break
		}
	}

	// Advance the clock: at least the skip target, at least one issue
	// slot per instruction executed (the SM is single-issue), at least
	// the cycles the DRAM bus needs to move the bytes the fast-forward
	// generated (the first-order structural bound for memory-bound
	// grids), and — when the grid finished inside the fast-forward — at
	// least the last warp's local completion.
	adv := until
	if t := start + issued; t > adv {
		adv = t
	}
	if bpc := int64(s.params.DRAM.Normalized().BytesPerCycle); bpc > 0 {
		moved := c.DRAMBytes() - dramBytes0
		if t := start + (moved+bpc-1)/bpc; t > adv {
			adv = t
		}
	}
	if s.disp.Done() && maxLocal > adv {
		adv = maxLocal
	}
	if adv > s.cycle {
		s.cycle = adv
	}
	if s.slotFreeAt < s.cycle {
		s.slotFreeAt = s.cycle
	}
	return nil
}

// runWarpFast executes one warp functionally from cycle now until it
// reaches the fast-forward horizon, blocks at a barrier, or exits. It
// returns the instructions executed and the warp's final local cycle.
func (s *SM) runWarpFast(ctx context.Context, poll bool, wIdx int, now, until int64, budget *int) (int64, int64, error) {
	w := s.disp.Warp(wIdx)
	c := &s.streams[0]
	issued := int64(0)
	for {
		if now >= until {
			s.disp.Park(wIdx, now)
			return issued, now, nil
		}
		wi := &w.Trace[w.PC]
		dep := now
		for _, src := range wi.Srcs {
			if src.Reg != isa.NoReg {
				if t := w.RegReady[src.Reg]; t > dep {
					dep = t
				}
			}
		}
		if w.NextIssue > dep {
			dep = w.NextIssue
		}
		if dep > now {
			now = dep
			continue
		}

		var out banks.Outcome
		if w.Outcomes != nil {
			out = w.Outcomes[w.PC]
		} else {
			out = s.bankModel.Evaluate(wi)
		}
		c.WarpInsts++
		c.ThreadInsts += int64(wi.ActiveThreads())
		if wi.Spill {
			c.SpillInsts++
		}
		c.RecordConflict(out.MaxPerBank)
		if out.Arbitration {
			c.ArbitrationConflicts++
		}
		c.RecordRegAccesses(wi)
		extra := int64(out.ExtraCycles)
		issued++

		complete := now + 1
		switch wi.Op {
		case isa.OpALU, isa.OpNop:
			complete = now + s.params.ALULatency + extra
		case isa.OpSFU:
			complete = now + s.params.SFULatency + extra
		case isa.OpLDS:
			complete = now + s.params.SharedLatency + extra
			c.SharedReads += int64(out.MemAccesses)
		case isa.OpSTS:
			c.SharedWrites += int64(out.MemAccesses)
		case isa.OpLDG:
			complete = s.mem.FastLoad(wi, now)
		case isa.OpSTG:
			s.mem.FastStore(wi, now)
		case isa.OpTEX:
			complete = s.mem.FastTex(wi, now)
		case isa.OpBAR:
			s.disp.Barrier(wIdx, now)
			return issued, now + 1, nil
		case isa.OpEXIT:
			s.disp.Exit(wIdx, now)
			return issued, now + 1, nil
		}
		if wi.Dst.Reg != isa.NoReg && complete > w.RegReady[wi.Dst.Reg] {
			w.RegReady[wi.Dst.Reg] = complete
		}
		w.PC++
		w.NextIssue = now + 1 + extra
		now++

		*budget--
		if *budget == 0 {
			*budget = ctxCheckInterval
			if poll && ctx.Err() != nil {
				s.disp.Park(wIdx, now)
				return issued, now, ctx.Err()
			}
		}
	}
}
