// Package dispatch owns the SM's work-distribution bookkeeping: CTA
// slots, warp launch and retirement, and CTA barriers. It is the layer
// between the trace source (which supplies the kernel grid) and the
// scheduler/timing core (which consume warp state).
//
// The Dispatcher holds the canonical warp array. Warp fields the timing
// core mutates on every issue (PC, scoreboard, issue serialization) are
// exported on Warp so the hot path stays direct; lifecycle transitions —
// launch, barrier arrival and release, exit, CTA rotation — go through
// Dispatcher methods so the invariants (live-warp counts, barrier
// arrival counts, early-exit barrier release) live in one place.
//
// A Dispatcher hosts one or more co-resident kernels (streams); a single
// kernel is a one-stream dispatcher. Each stream files its launch and
// retirement events into its own counter set.
//
// Beside the warp array the Dispatcher keeps a dense array of each
// slot's Slot: the cycles that decide when the warp can next be
// promoted and issue. The scheduler's walk over the active set and its
// promotion scan over the ready warps read those few bytes per
// candidate instead of the warp.
//
// Dispatcher implements the scheduler's Pool interface (NumStreams /
// Stream / MinReady / Activate), which is the only coupling between the
// two components.
package dispatch

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/banks"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/stats"
)

// TraceSource supplies the kernel grid to execute and, per warp, the
// tables the timing core replays instead of recomputing: every
// instruction's bank-conflict outcome and global-memory footprint. An
// outcome depends only on the instruction and the bank-model variant,
// and a footprint only on the address vector, so a source may memoize
// them (internal/workloads does; internal/trace computes them per
// request). Every returned value may be shared and must be treated as
// immutable. Outcome tables are index-aligned with the warp's WarpCode;
// footprint tables hold only the global-memory instructions, indexed by
// their ordinal in its program (isa.Program.Global).
type TraceSource interface {
	// Grid returns the total number of CTAs and the warps per CTA.
	Grid() (ctas, warpsPerCTA int)
	// WarpCode returns the trace of one warp in split form: a program
	// (which warps may share) and the warp's operand table. It is
	// called once per warp, when the warp's CTA is launched.
	WarpCode(cta, warp int) isa.WarpCode
	// WarpOutcomes returns the bank-conflict outcome of each of the
	// warp's instructions under one bank-model variant (nil for a design
	// outside the config.Design enum, which the SM refuses).
	WarpOutcomes(cta, warp int, design config.Design, aggressive bool) []banks.Outcome
	// WarpFootprints returns the footprint of each of the warp's
	// global-memory instructions.
	WarpFootprints(cta, warp int) *memsys.Footprints
}

// Status is a warp's lifecycle state.
type Status uint8

const (
	// Idle: the slot is unoccupied.
	Idle Status = iota
	// Ready: eligible for the active set at its Slot.WakeAt.
	Ready
	// Active: in the scheduler's active set.
	Active
	// Barrier: blocked at a CTA barrier.
	Barrier
	// Done: exited.
	Done
)

// Warp is one warp slot. The scheduler and timing core identify warps by
// their slot index in the Dispatcher.
type Warp struct {
	Status Status
	// ArbStall records that the warp's pending issue serialization came
	// from an arbitration conflict, for the observability layer's stall
	// attribution. Timing never reads it. (It shares Status's word.)
	ArbStall bool
	CTASlot  int
	// Code is the warp's trace: Code.Prog's records are what the timing
	// core walks, and Code decodes an instruction with its addresses.
	Code isa.WarpCode
	// Outcomes holds the bank-conflict outcome of each instruction
	// under the dispatcher's bank-model variant, and Footprints each
	// global-memory instruction's footprint, at its ordinal
	// (Code.Prog.Global); both are attached at launch from the trace
	// source, and the timing core replays them on every issue, probed
	// runs included.
	Outcomes   []banks.Outcome
	Footprints *memsys.Footprints
	PC         int
	// RegReady is the per-register scoreboard: the cycle each
	// architectural register's pending value arrives.
	RegReady [isa.MaxRegs]int64
}

// DepReady returns the cycle the last source operand of the
// instruction at PC arrives: the largest RegReady among its sources.
// PC must index an instruction.
func (w *Warp) DepReady() int64 {
	dep := int64(0)
	for _, src := range w.Code.Prog.Insts[w.PC].Srcs {
		if src.Reg != isa.NoReg {
			if t := w.RegReady[src.Reg]; t > dep {
				dep = t
			}
		}
	}
	return dep
}

// Slot is a warp slot's scheduling state, kept apart from the warp:
// the earliest cycle its next instruction can issue, as two terms the
// scheduler's walk compares with the clock, and the cycle it can next
// be promoted. Only the warp's own issue changes the issue terms (it
// writes the scoreboard, the PC and the issue stream), so the timing
// core sets them when the warp issues and they stay exact until it
// issues again; a launched warp starts at zero in both.
type Slot struct {
	// Issue is the first cycle the warp's own issue stream is free: the
	// bank-conflict extra cycles of its previous instruction serialize
	// it.
	Issue int64
	// Dep is the instruction at PC's Warp.DepReady. The two-level
	// deschedule rule compares it alone with the clock.
	Dep int64
	// WakeAt is the cycle a Ready warp becomes eligible for promotion.
	WakeAt int64
}

// slot is an entry of the dispatcher's dense per-slot array.
type slot struct {
	Slot
	// stream is the slot's owning stream index; the mapping is
	// structural (slots never change streams).
	stream int
}

// ctaSlot tracks one resident CTA.
type ctaSlot struct {
	id        int // grid CTA index, -1 if empty
	stream    int // owning stream (kernel) index
	liveWarps int
	barWaits  int
	warps     []int // warp slot indices
}

// StreamSpec describes one co-resident kernel (stream) of a dispatcher:
// its grid source, the number of CTA slots it holds resident, and the
// counter set its launch and retirement events are filed into.
type StreamSpec struct {
	// Source supplies the stream's kernel grid.
	Source TraceSource
	// ResidentCTAs is the number of CTA slots reserved for this stream.
	ResidentCTAs int
	// Counters receives the stream's ThreadsRun, CTAsRetired, and
	// MaxResidentThreads.
	Counters *stats.Counters
}

// streamState is one stream's launch bookkeeping.
type streamState struct {
	src       TraceSource
	nextCTA   int // next grid CTA of this stream to launch
	totalCTAs int
	warpsPer  int
	liveWarps int
	// doneAt is the cycle the stream's last warp exited with no grid
	// CTAs left, -1 while the stream still has work — the stream's own
	// completion time under co-residency.
	doneAt int64
	// mask selects the warp slots owned by this stream's CTA slots.
	mask uint64
	// c receives this stream's launch and retirement events.
	c *stats.Counters
}

// Dispatcher launches the grid's CTAs into resident slots, rotates new
// CTAs in as old ones drain, and resolves barriers. Each CTA slot is
// pinned to one stream, slots are interleaved round-robin across
// streams, and a drained slot relaunches the next CTA of its own
// stream.
type Dispatcher struct {
	// design and aggressive select the bank-model variant whose outcome
	// tables launched warps replay.
	design     config.Design
	aggressive bool

	streams []streamState

	warps []Warp
	slots []slot
	ctas  []ctaSlot
	// ctaWarps backs every CTA slot's warp index list.
	ctaWarps []int

	liveWarps int
	// readyMask has bit w set iff warp slot w is in the Ready state, so
	// the scheduler's refill and the timing core's wake scan walk only
	// the ready warps (usually none, on a busy SM) instead of every
	// slot. MaxWarpsPerSM <= 64 keeps every slot in one word (checked
	// at compile time below).
	readyMask uint64
	// readyLow is at most every Ready warp's wake cycle (noWake when none
	// is Ready), so MinReady and MinFutureWake can answer without a scan
	// while every parked warp sleeps past now. Lowering it as warps
	// become Ready keeps it a bound; lowExact records that it is also
	// the minimum. Activating the warp at the bound clears lowExact, and
	// the next full scan restores it.
	readyLow int64
	lowExact bool
}

// noWake is the wake cycle that means "no Ready warp".
const noWake = int64(1) << 62

// readyMask must cover every possible warp slot.
var _ [64 - config.MaxWarpsPerSM]struct{}

// Reset readies the dispatcher (a new one is the zero Dispatcher) to
// host the given streams concurrently, reusing its stream, warp, slot
// and CTA arrays when they are large enough. CTA slots are interleaved
// round-robin across streams (stream 0's first slot, stream 1's first
// slot, ..., stream 0's second slot, ...), so slot — and therefore warp
// — indices alternate between streams and index-based tie-breaks
// (MinReady) stay fair. Launched warps replay the outcome tables of the
// given bank-model variant. After a failed Reset the dispatcher must be
// Reset again before use.
func (d *Dispatcher) Reset(specs []StreamSpec, design config.Design, aggressive bool) error {
	if len(specs) == 0 {
		return fmt.Errorf("dispatch: need at least one stream")
	}
	streams, warps, slots, ctas, ctaWarps := d.streams, d.warps, d.slots, d.ctas, d.ctaWarps
	*d = Dispatcher{design: design, aggressive: aggressive, readyLow: noWake, lowExact: true}
	d.streams = slices.Grow(streams[:0], len(specs))[:len(specs)]
	clear(d.streams)
	totalWarps, totalCTAs, maxResident := 0, 0, 0
	for i, sp := range specs {
		if sp.Source == nil || sp.Counters == nil {
			return fmt.Errorf("dispatch: stream %d needs a trace source and a counter set", i)
		}
		if sp.ResidentCTAs < 1 {
			return fmt.Errorf("dispatch: stream %d needs at least one resident CTA", i)
		}
		gridCTAs, warpsPer := sp.Source.Grid()
		if warpsPer < 1 {
			return fmt.Errorf("dispatch: stream %d has no warps per CTA", i)
		}
		st := &d.streams[i]
		st.src = sp.Source
		st.totalCTAs = gridCTAs
		st.warpsPer = warpsPer
		st.doneAt = -1
		st.c = sp.Counters
		totalWarps += sp.ResidentCTAs * warpsPer
		totalCTAs += sp.ResidentCTAs
		if sp.ResidentCTAs > maxResident {
			maxResident = sp.ResidentCTAs
		}
	}
	if totalWarps > config.MaxWarpsPerSM {
		return fmt.Errorf("dispatch: %d resident warps exceed the %d-warp SM limit",
			totalWarps, config.MaxWarpsPerSM)
	}
	d.warps = slices.Grow(warps[:0], totalWarps)[:totalWarps]
	clear(d.warps)
	d.slots = slices.Grow(slots[:0], totalWarps)[:totalWarps]
	clear(d.slots)
	d.ctaWarps = slices.Grow(ctaWarps[:0], totalWarps)[:totalWarps]
	d.ctas = slices.Grow(ctas[:0], totalCTAs)
	base := 0
	for round := 0; round < maxResident; round++ {
		for s, sp := range specs {
			if round >= sp.ResidentCTAs {
				continue
			}
			warpsPer := d.streams[s].warpsPer
			slot := ctaSlot{id: -1, stream: s, warps: d.ctaWarps[base : base+warpsPer : base+warpsPer]}
			for w := 0; w < warpsPer; w++ {
				slot.warps[w] = base + w
				d.slots[base+w].stream = s
				d.streams[s].mask |= 1 << uint(base+w)
			}
			base += warpsPer
			d.ctas = append(d.ctas, slot)
		}
	}
	return nil
}

// Detach drops the dispatcher's references to its run's trace sources,
// warp tables and counters, so a recycled dispatcher keeps nothing of a
// finished run alive. Reset readies it again.
func (d *Dispatcher) Detach() {
	clear(d.warps)
	clear(d.streams)
}

// Start launches the initial resident CTAs at the given cycle and records
// each stream's resident-thread high-water mark.
func (d *Dispatcher) Start(cycle int64) {
	for slot := range d.ctas {
		st := &d.streams[d.ctas[slot].stream]
		if st.nextCTA < st.totalCTAs {
			d.launch(slot, cycle)
		}
	}
	for i := range d.ctas {
		if c := &d.ctas[i]; c.id >= 0 {
			d.streams[c.stream].c.MaxResidentThreads += len(c.warps) * isa.WarpSize
		}
	}
	// A stream with an empty grid is complete before it begins.
	for i := range d.streams {
		st := &d.streams[i]
		if st.liveWarps == 0 && st.nextCTA >= st.totalCTAs && st.doneAt < 0 {
			st.doneAt = cycle
		}
	}
}

// launch populates a CTA slot with its stream's next grid CTA; the
// warps wake at the given cycle.
func (d *Dispatcher) launch(slot int, cycle int64) {
	c := &d.ctas[slot]
	st := &d.streams[c.stream]
	c.id = st.nextCTA
	st.nextCTA++
	c.liveWarps = st.warpsPer
	c.barWaits = 0
	for i, wIdx := range c.warps {
		w := &d.warps[wIdx]
		*w = Warp{
			Status:     Ready,
			CTASlot:    slot,
			Code:       st.src.WarpCode(c.id, i),
			Outcomes:   st.src.WarpOutcomes(c.id, i, d.design, d.aggressive),
			Footprints: st.src.WarpFootprints(c.id, i),
		}
		d.slots[wIdx].Slot = Slot{WakeAt: cycle}
		d.liveWarps++
		st.liveWarps++
		d.readyMask |= 1 << uint(wIdx)
	}
	d.lowerWake(cycle)
	st.c.ThreadsRun += int64(st.warpsPer) * isa.WarpSize
}

// Done reports whether every warp of the grid has exited.
func (d *Dispatcher) Done() bool { return d.liveWarps == 0 }

// NumWarps returns the number of warp slots.
func (d *Dispatcher) NumWarps() int { return len(d.warps) }

// Warp returns the warp at slot i for direct state access.
func (d *Dispatcher) Warp(i int) *Warp { return &d.warps[i] }

// Slot returns warp slot i's scheduling state for direct access; the
// timing core writes its issue terms whenever the warp issues.
func (d *Dispatcher) Slot(i int) *Slot { return &d.slots[i].Slot }

// WakeBy reports whether a Ready warp may be eligible for promotion by
// now. When it is false, MinReady fails for every stream, so the
// scheduler's refill has nothing to promote.
func (d *Dispatcher) WakeBy(now int64) bool { return d.readyLow <= now }

// lowerWake keeps readyLow a bound after a warp becomes Ready at wake.
// The minimum of an exact minimum and a new wake is exact, so lowExact
// is unchanged.
func (d *Dispatcher) lowerWake(wake int64) {
	if wake < d.readyLow {
		d.readyLow = wake
	}
}

// MinFutureWake returns the earliest wake cycle strictly after now among
// Ready warps, or noWake (1<<62) when there is none — the timing core's
// next-event candidate for warp wake-ups.
func (d *Dispatcher) MinFutureWake(now int64) int64 {
	if d.lowExact && d.readyLow > now {
		return d.readyLow
	}
	min, low := noWake, noWake
	for m := d.readyMask; m != 0; m &= m - 1 {
		wake := d.slots[bits.TrailingZeros64(m)].WakeAt
		if wake > now && wake < min {
			min = wake
		}
		if wake < low {
			low = wake
		}
	}
	d.readyLow, d.lowExact = low, true
	return min
}

// Activate marks warp w as entering the scheduler's active set (the
// sched.Pool view).
func (d *Dispatcher) Activate(w int) {
	d.warps[w].Status = Active
	d.readyMask &^= 1 << uint(w)
	if d.slots[w].WakeAt == d.readyLow {
		d.lowExact = false
	}
}

// Park returns an active warp to the Ready state to wait out a
// long-latency dependence, eligible for promotion again at wake (the
// two-level scheduler's deschedule rule). The caller removes the warp
// from the active set.
func (d *Dispatcher) Park(w int, wake int64) {
	d.warps[w].Status = Ready
	d.slots[w].WakeAt = wake
	d.readyMask |= 1 << uint(w)
	d.lowerWake(wake)
}

// Barrier blocks warp wIdx at its CTA barrier (advancing its PC past the
// BAR instruction); when it is the last live warp to arrive, the whole
// CTA is released to wake at now+1. The caller removes the warp from the
// active set.
func (d *Dispatcher) Barrier(wIdx int, now int64) {
	w := &d.warps[wIdx]
	c := &d.ctas[w.CTASlot]
	w.PC++
	w.Status = Barrier
	c.barWaits++
	if c.barWaits >= c.liveWarps {
		c.barWaits = 0
		d.release(c, now)
	}
}

// release wakes every barrier-blocked warp of the CTA.
func (d *Dispatcher) release(c *ctaSlot, now int64) {
	for _, idx := range c.warps {
		ww := &d.warps[idx]
		if ww.Status == Barrier {
			ww.Status = Ready
			d.slots[idx].WakeAt = now + 1
			d.readyMask |= 1 << uint(idx)
		}
	}
	d.lowerWake(now + 1)
}

// Exit retires warp wIdx and, when its CTA drains, launches its
// stream's next grid CTA into the freed slot. An exiting warp may also
// be the last one holding up a barrier (warps that exit early release
// their CTA-mates). The caller removes the warp from the active set.
func (d *Dispatcher) Exit(wIdx int, now int64) {
	w := &d.warps[wIdx]
	c := &d.ctas[w.CTASlot]
	st := &d.streams[c.stream]
	w.Status = Done
	w.Code = isa.WarpCode{}
	w.Outcomes = nil
	w.Footprints = nil
	d.liveWarps--
	st.liveWarps--
	c.liveWarps--
	if c.liveWarps == 0 {
		st.c.CTAsRetired++
		slot := w.CTASlot
		c.id = -1
		if st.nextCTA < st.totalCTAs {
			d.launch(slot, now)
		}
	} else if c.barWaits >= c.liveWarps && c.barWaits > 0 {
		c.barWaits = 0
		d.release(c, now)
	}
	if st.liveWarps == 0 && st.nextCTA >= st.totalCTAs && st.doneAt < 0 {
		st.doneAt = now
	}
}

// NumStreams returns the number of co-resident streams (the sched.Pool
// view).
func (d *Dispatcher) NumStreams() int { return len(d.streams) }

// Stream returns the stream index owning warp slot w (the sched.Pool
// view). The mapping is structural and never changes.
func (d *Dispatcher) Stream(w int) int { return d.slots[w].stream }

// MinReady returns the stream's Ready warp with the oldest wake cycle
// at or before now, lowest slot index breaking ties, and its wake — the
// promotion rule of the two-level scheduler (the sched.Pool view). It
// returns at once while every Ready warp sleeps past now, and otherwise
// walks only the stream's ready warps via the ready bitmask.
func (d *Dispatcher) MinReady(now int64, stream int) (w int, wake int64, ok bool) {
	if d.readyLow > now {
		return -1, 0, false
	}
	mask := d.streams[stream].mask
	best, bestWake, low := -1, int64(0), noWake
	for m := d.readyMask & mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		wake := d.slots[i].WakeAt
		if wake <= now && (best < 0 || wake < bestWake) {
			best, bestWake = i, wake
		}
		if wake < low {
			low = wake
		}
	}
	if d.readyMask&^mask == 0 {
		// The stream holds every Ready warp: the scan saw them all.
		d.readyLow, d.lowExact = low, true
	}
	return best, bestWake, best >= 0
}

// StreamDoneAt returns the cycle a stream's last warp exited (its
// completion time under co-residency), or -1 while it still has live
// warps or unlaunched CTAs.
func (d *Dispatcher) StreamDoneAt(stream int) int64 { return d.streams[stream].doneAt }

// Counts returns the number of warps blocked at a barrier and the number
// awaiting promotion, for the stall classifier.
func (d *Dispatcher) Counts() (barrier, ready int) {
	for i := range d.warps {
		switch d.warps[i].Status {
		case Barrier:
			barrier++
		case Ready:
			ready++
		}
	}
	return barrier, ready
}
