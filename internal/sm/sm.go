// Package sm is the streaming-multiprocessor timing simulator.
//
// It models one SM of the paper's baseline GPU (Figure 1, Table 2): 32
// SIMT lanes organized as 8 four-lane clusters, a 32-entry single-issue
// in-order warp scheduler with a two-level active/inactive policy, a
// software-managed MRF/ORF/LRF register hierarchy, shared memory, a
// write-through primary data cache with a single tag port, and a
// bandwidth-limited DRAM channel. Traces are supplied per warp by a
// TraceSource (internal/workloads via internal/kgen).
//
// The SM itself is a thin orchestrator over three components:
//
//   - internal/sched owns the warp-scheduling policy (active-set
//     selection, issue priority order, long-latency descheduling);
//   - internal/dispatch owns work distribution (CTA slots, warp launch
//     and retirement, barriers) and the canonical warp array;
//   - internal/memsys owns the global-memory pipeline (coalescer,
//     primary cache, MSHR table, sectored DRAM fills, texture path).
//
// Following the paper's Section 5.1 methodology, one SM is simulated to
// completion with its 1/32 share of chip DRAM bandwidth.
package sm

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/banks"
	"repro/internal/config"
	"repro/internal/dispatch"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/probe"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Memory is the DRAM system the SM issues global traffic to; it is owned
// by the memory-pipeline component.
type Memory = memsys.Memory

// TraceSource supplies the kernel grid to execute; it is consumed by the
// dispatch component.
type TraceSource = dispatch.TraceSource

// Params holds the timing parameters of Table 2.
type Params struct {
	ALULatency    int64
	SFULatency    int64
	SharedLatency int64
	CacheLatency  int64 // primary cache hit latency
	TexLatency    int64
	DRAM          dram.Config
	// DeschedulePast is the wait (in cycles) beyond which a dependent
	// warp is moved to the inactive set instead of busy-waiting in the
	// active set.
	DeschedulePast int64
	// ActiveWarps is the active-set size of the warp scheduler.
	ActiveWarps int
	// Scheduler selects the warp-scheduling policy; the zero value is
	// sched.TwoLevel, the paper's two-level round-robin scheduler.
	Scheduler sched.Policy
	// AggressiveScatter selects the Section 4.2 multi-bank-per-cluster
	// scatter/gather variant of the unified design.
	AggressiveScatter bool
	// WriteBackCache replaces the paper's write-through no-write-allocate
	// cache with a write-back write-allocate one (an ablation of the
	// Section 4.3/4.4 design choice). Dirty victims cost a line writeback
	// to DRAM plus a data-array read.
	WriteBackCache bool
	// MaxMSHRs bounds outstanding cache misses; a load that needs a new
	// miss entry while all are in flight stalls until one retires.
	// Zero means unbounded (the paper's model).
	MaxMSHRs int
}

// DefaultParams returns the Table 2 parameters.
func DefaultParams() Params {
	return Params{
		ALULatency:     8,
		SFULatency:     20,
		SharedLatency:  20,
		CacheLatency:   20,
		TexLatency:     400,
		DRAM:           dram.DefaultConfig(),
		DeschedulePast: 30,
		ActiveWarps:    config.ActiveWarps,
	}
}

// SM is one simulated streaming multiprocessor: the timing core plus its
// scheduler, dispatcher, and memory-pipeline components.
type SM struct {
	params Params
	cfg    config.MemConfig

	// bankModel re-evaluates each issued instruction for the probe's
	// bank heatmap, nil without a probe; timing replays the warp's
	// outcome table instead.
	bankModel *banks.Model
	sched     sched.Scheduler
	disp      *dispatch.Dispatcher
	mem       *memsys.MemSys
	// dramModel is the SM-private DRAM channel, nil when Spec.Memory
	// injected a shared system. Snapshot needs it: a shared memory
	// system's state belongs to the chip, not to one SM.
	dramModel *dram.DRAM
	// fr holds the state sched, disp, mem and dramModel point into; nil
	// once the SM is released.
	fr *frame
	// streams holds one counter set per co-resident kernel (stream), in
	// Spec.Streams order; a single-kernel run has one. They are the SM's
	// only books: every event is charged to exactly one stream, and
	// Finish derives the run's aggregate from them (DESIGN.md §5j).
	streams []stats.Counters
	// lastStream is the stream of the most recent issue, the default
	// attribution target for stalls no single warp owns (probed runs
	// only).
	lastStream int
	// prof is the attached observability probe, nil when disabled.
	// Every hook call site is guarded, so a run without a probe does no
	// observability work at all, and a probed run only reads state.
	prof *probe.Probe

	cycle      int64
	slotFreeAt int64 // issue slot busy until
	started    bool

	// visit is the Walk visitor, bound once at construction: creating the
	// method value per Step would heap-allocate a closure on the hottest
	// loop of the simulator.
	visit func(w int) sched.Action
	// nextEvent accumulates, during one tryIssue pass, the earliest future
	// cycle at which something may become issueable.
	nextEvent int64
}

// StreamSpec describes one co-resident kernel (stream) of an SM run.
type StreamSpec struct {
	// Name labels the stream in probe output (typically the kernel name).
	Name string
	// Source supplies the stream's grid.
	Source TraceSource
	// ResidentCTAs is the stream's share of the SM's CTA slots.
	ResidentCTAs int
}

// Spec gathers everything needed to build an SM. The zero value of the
// optional fields selects the defaults: Memory nil creates a private
// single-channel DRAM system (the chip simulator injects a shared one),
// and Probe nil disables the observability layer entirely.
type Spec struct {
	// Config is the local-memory configuration.
	Config config.MemConfig
	// Params are the timing parameters (Table 2).
	Params Params
	// Source supplies the kernel grid to execute and ResidentCTAs its
	// number of concurrent CTA slots: the spelling of a one-entry
	// Streams list, which NewSM builds from them.
	Source       TraceSource
	ResidentCTAs int
	// Streams lists the kernels co-resident on the SM, with CTA slots
	// interleaved round-robin and per-stream counter books. Mutually
	// exclusive with Source/ResidentCTAs.
	Streams []StreamSpec
	// Memory optionally injects a shared memory system.
	Memory Memory
	// Probe optionally attaches a cycle-level observability probe.
	Probe *probe.Probe
}

// NewSM builds an SM from spec, on a frame of per-run state taken
// from the process-wide free list (see frame). Call Release once the
// run's results have been read, to hand the frame on to the next SM.
func NewSM(spec Spec) (*SM, error) {
	streams := spec.Streams
	var one [1]StreamSpec // the one-stream spelling, kept off the heap
	if spec.Source != nil {
		if len(streams) > 0 {
			return nil, fmt.Errorf("sm: Spec.Source and Spec.Streams are mutually exclusive")
		}
		one[0] = StreamSpec{Source: spec.Source, ResidentCTAs: spec.ResidentCTAs}
		streams = one[:]
	}
	if len(streams) == 0 {
		return nil, fmt.Errorf("sm: Spec.Source is nil")
	}
	cfg, params := spec.Config, spec.Params
	if banks.Variant(cfg.Design, params.AggressiveScatter) < 0 {
		return nil, fmt.Errorf("sm: unknown design %v", cfg.Design)
	}
	if params.ActiveWarps < 1 {
		params.ActiveWarps = config.ActiveWarps
	}
	var bankModel *banks.Model
	if spec.Probe != nil {
		bankModel = banks.New(cfg.Design)
		if params.AggressiveScatter {
			bankModel = banks.NewAggressive(cfg.Design)
		}
	}
	s := &SM{
		params:    params,
		cfg:       cfg,
		bankModel: bankModel,
		prof:      spec.Probe,
		fr:        frames.Get().(*frame),
	}
	if err := s.reset(streams, spec.Memory); err != nil {
		s.Release()
		return nil, fmt.Errorf("sm: %w", err)
	}
	return s, nil
}

// reset readies the SM's frame for a run of streams issuing to mem (a
// private DRAM channel of the frame when mem is nil) and binds the SM
// to its components.
func (s *SM) reset(streams []StreamSpec, mem Memory) error {
	fr, cfg, params := s.fr, s.cfg, s.params
	var err error
	if fr.sched, err = sched.New(fr.sched, params.Scheduler, params.ActiveWarps); err != nil {
		return err
	}
	s.sched = fr.sched
	s.streams = make([]stats.Counters, len(streams))
	var buf [4]dispatch.StreamSpec // Reset keeps no reference to specs
	specs := buf[:0]
	for i, st := range streams {
		specs = append(specs, dispatch.StreamSpec{Source: st.Source, ResidentCTAs: st.ResidentCTAs, Counters: &s.streams[i]})
	}
	if err := fr.disp.Reset(specs, cfg.Design, params.AggressiveScatter); err != nil {
		return err
	}
	s.disp = &fr.disp
	if s.prof != nil {
		names := make([]string, len(streams))
		for i, st := range streams {
			names[i] = st.Name
		}
		s.prof.SetStreams(names)
	}
	if mem == nil {
		fr.dram.Reset(params.DRAM)
		s.dramModel = &fr.dram
		mem = s.dramModel
	}
	fr.mem.Reset(memConfig(cfg, params), mem, &s.streams[0])
	s.mem = &fr.mem
	s.visit = s.visitWarp
	return nil
}

// Release hands the SM's frame back to the free list for the next NewSM
// or Fork. Call it once the run's results have been read: Finish's
// counters, StreamCounters and a probe's books stay valid, but the SM
// is spent. Step, Run, RunTo, Snapshot and SetParams then fail with
// ErrReleased, Start does nothing and Finish panics, so a stale
// reference can never step another run's state. Releasing twice is a
// no-op, and an SM that is never released is collected with its frame.
func (s *SM) Release() {
	fr := s.fr
	if fr == nil {
		return
	}
	s.fr, s.sched, s.disp, s.mem, s.dramModel = nil, nil, nil, nil, nil
	s.started = false
	fr.disp.Detach()
	fr.mem.Detach()
	frames.Put(fr)
}

// ErrReleased is the error a released SM's Step, Run, RunTo, Snapshot
// and SetParams return.
var ErrReleased = errors.New("sm: SM used after Release")

// counterRefs returns pointers to the per-stream counter sets: the
// probe's live view of the SM's books.
func (s *SM) counterRefs() []*stats.Counters {
	refs := make([]*stats.Counters, len(s.streams))
	for i := range s.streams {
		refs[i] = &s.streams[i]
	}
	return refs
}

// memConfig derives the memory-pipeline configuration from the SM
// parameters; NewSM and SetParams must agree on it so a fork built with
// divergent params and an in-place param switch behave identically.
func memConfig(cfg config.MemConfig, params Params) memsys.Config {
	return memsys.Config{
		CacheBytes:   cfg.CacheBytes,
		CacheLatency: params.CacheLatency,
		TexLatency:   params.TexLatency,
		DRAMLatency:  params.DRAM.LatencyCycles,
		MaxMSHRs:     params.MaxMSHRs,
		WriteBack:    params.WriteBackCache,
	}
}

// cycleBound stops the cycle loop on a run that cannot finish in any
// meaningful time, such as a dependence on a result due past the bound.
// (A barrier reached by only part of a CTA does not hang: the warps that
// exit instead release it.)
const cycleBound = int64(1) << 40

// ErrNoProgress is the error Step returns, wrapped with the cycle, when
// the local clock passes cycleBound without the grid finishing: the
// trace cannot complete.
var ErrNoProgress = errors.New("sm: no forward progress")

// Start launches the initial resident CTAs. It is called implicitly by
// Run; the chip simulator calls it directly before stepping.
func (s *SM) Start() { s.StartAt(0) }

// StartAt launches the initial resident CTAs at the given cycle (the chip
// simulator staggers SM start times, as the hardware work distributor's
// sequential CTA launch does).
func (s *SM) StartAt(cycle int64) {
	if s.started || s.fr == nil {
		return
	}
	s.started = true
	s.cycle = cycle
	if s.prof != nil {
		s.prof.Begin(s.counterRefs(), cycle)
	}
	s.disp.Start(cycle)
}

// Done reports whether every warp of the grid has exited.
func (s *SM) Done() bool { return s.started && s.disp.Done() }

// Cycle returns the SM's local clock, used by the chip simulator to
// advance SMs in global time order.
func (s *SM) Cycle() int64 { return s.cycle }

// Step advances the SM by one scheduling action: either one instruction
// issues, or the local clock advances to the next interesting event. The
// local clock is nondecreasing across calls and strictly increases at
// least every second call.
func (s *SM) Step() error {
	if s.fr == nil {
		return ErrReleased
	}
	if s.cycle < s.slotFreeAt {
		s.cycle = s.slotFreeAt
	}
	if s.disp.WakeBy(s.cycle) {
		s.sched.Refill(s.disp, s.cycle)
	}
	issued, nextEvent := s.tryIssue()
	if issued {
		return nil
	}
	if nextEvent <= s.cycle {
		nextEvent = s.cycle + 1
	}
	if s.prof != nil {
		reason, stream := s.stallReason()
		s.prof.Stall(s.cycle, nextEvent, reason, stream)
	}
	s.cycle = nextEvent
	if s.cycle > cycleBound {
		return fmt.Errorf("%w by cycle %d (deadlocked trace?)", ErrNoProgress, s.cycle)
	}
	return nil
}

// Finish finalizes and returns the run's aggregate counters, derived
// from the per-stream books: the additive categories are their sum,
// while Cycles (execution ends when the last warp exits AND posted
// tag-port work has drained), MaxResidentThreads (the streams' resident
// threads together), and DirtyLinesEnd are SM-wide. A stream's own
// Cycles is the cycle its last warp exited.
func (s *SM) Finish() *stats.Counters {
	if s.fr == nil {
		panic(ErrReleased)
	}
	cycles := s.cycle
	if t := s.mem.TagFreeAt(); t > cycles {
		cycles = t
	}
	total := &stats.Counters{}
	resident := 0
	for i := range s.streams {
		s.streams[i].Cycles = s.disp.StreamDoneAt(i)
		total.Add(&s.streams[i])
		resident += s.streams[i].MaxResidentThreads
	}
	total.Cycles = cycles
	total.MaxResidentThreads = resident
	total.DirtyLinesEnd = s.mem.DirtyLines()
	if s.prof != nil {
		s.prof.End(cycles)
	}
	return total
}

// StreamCounters returns the per-stream counters, indexed by
// Spec.Streams order (one entry for a single-kernel spec). The additive
// event categories sum exactly to the aggregate counters; Cycles holds
// each stream's own completion cycle. Call after Finish.
func (s *SM) StreamCounters() []stats.Counters { return s.streams }

// stallReason classifies a failed issue attempt for the observability
// probe, reading each component at its boundary: active-set occupancy
// from the scheduler, warp lifecycle counts from the dispatcher, and the
// MSHR-saturation window from the memory pipeline. Each lost slot is
// charged to exactly one cause, by fixed priority: barrier > MSHR-full >
// scoreboard > arbitration > bank-conflict > no-ready-warp. It also
// names the stream the slots are charged to: the stream of the first
// warp exhibiting the winning cause, or the last-issuing stream for
// causes no single warp owns (MSHR saturation, an empty ready set).
// Only probed runs call this, on the (cold) no-issue path.
func (s *SM) stallReason() (probe.StallReason, int) {
	if s.sched.Len() == 0 {
		barrier, readyLater := s.disp.Counts()
		if barrier > 0 && readyLater == 0 {
			for i := 0; ; i++ {
				if s.disp.Warp(i).Status == dispatch.Barrier {
					return probe.StallBarrier, s.disp.Stream(i)
				}
			}
		}
		if s.cycle < s.mem.MSHRBlockedUntil() {
			return probe.StallMSHRFull, s.lastStream
		}
		return probe.StallNoReadyWarp, s.lastStream
	}
	sawDep, sawSerial, sawArb := false, false, false
	depStream, serialStream, arbStream := 0, 0, 0
	for _, wIdx := range s.sched.Active() {
		if s.disp.Slot(wIdx).Issue > s.cycle {
			// The warp holds its own issue stream while bank-conflict
			// extra cycles of its previous instruction elapse.
			if !sawSerial {
				serialStream = s.disp.Stream(wIdx)
			}
			sawSerial = true
			if s.disp.Warp(wIdx).ArbStall && !sawArb {
				arbStream = s.disp.Stream(wIdx)
				sawArb = true
			}
			continue
		}
		// An active warp that is not serialized failed on an operand
		// dependence (long waits were descheduled out of the set).
		if !sawDep {
			depStream = s.disp.Stream(wIdx)
		}
		sawDep = true
	}
	switch {
	case s.cycle < s.mem.MSHRBlockedUntil():
		return probe.StallMSHRFull, s.lastStream
	case sawDep:
		return probe.StallScoreboard, depStream
	case sawArb:
		return probe.StallArbitration, arbStream
	case sawSerial:
		return probe.StallBankConflict, serialStream
	}
	return probe.StallNoReadyWarp, s.lastStream
}

// Run executes the grid to completion and returns the event counters.
func (s *SM) Run() (*stats.Counters, error) { return s.RunContext(context.Background()) }

// ctxCheckInterval is the number of Step calls the cycle loop executes
// between context polls. Polling is two predictable branches per
// interval, so the context-aware loop stays indistinguishable from an
// unpolled one on the profiles while still bounding cancellation
// latency to a few microseconds of simulated work.
const ctxCheckInterval = 1 << 13

// RunContext is Run with cooperative cancellation: the cycle loop polls
// ctx every few thousand steps and aborts with ctx.Err() once the
// context is done; a context that can never be cancelled (for example
// context.Background()) is never polled. A completed run's counters are
// identical to Run's — cancellation only decides whether the run
// finishes, never what it computes.
func (s *SM) RunContext(ctx context.Context) (*stats.Counters, error) {
	if err := s.run(ctx, math.MaxInt64); err != nil {
		return nil, err
	}
	return s.Finish(), nil
}

// run is the one cycle loop behind Run, RunContext, RunTo and
// RunToContext: it starts the SM if needed and steps it until the grid
// completes or the clock reaches until, polling ctx every
// ctxCheckInterval steps.
func (s *SM) run(ctx context.Context, until int64) error {
	poll := ctx != nil && ctx.Done() != nil
	s.Start()
	budget := ctxCheckInterval
	for !s.Done() && s.cycle < until {
		if err := s.Step(); err != nil {
			return err
		}
		if budget--; budget == 0 {
			budget = ctxCheckInterval
			if poll {
				select {
				case <-ctx.Done():
					return ctx.Err()
				default:
				}
			}
		}
	}
	return nil
}

// tryIssue attempts to issue one warp instruction from the active set in
// the scheduling policy's priority order. It returns whether an
// instruction issued and, if not, the earliest future cycle at which
// something may become issueable.
//
// The wake-up scan over Ready warps runs only on a failed issue (its
// result is unused otherwise) and only when some warp is Ready at all;
// warps the Walk itself parks are Ready with their wake cycle already
// noted, so scanning after the Walk observes the same set of events.
func (s *SM) tryIssue() (bool, int64) {
	s.nextEvent = int64(1) << 62
	if s.sched.Walk(s.visit) {
		return true, s.nextEvent
	}
	// Wake-ups of ready and barrier-released warps are future events.
	if wake := s.disp.MinFutureWake(s.cycle); wake < s.nextEvent {
		s.nextEvent = wake
	}
	return false, s.nextEvent
}

// note records a candidate next-event cycle.
func (s *SM) note(t int64) {
	if t > s.cycle && t < s.nextEvent {
		s.nextEvent = t
	}
}

// visitWarp is the Walk visitor: it judges one active-set candidate by
// its readiness terms, and loads the warp only to issue it once both
// have passed.
func (s *SM) visitWarp(wIdx int) sched.Action {
	slot := s.disp.Slot(wIdx)
	if slot.Issue > s.cycle {
		s.note(slot.Issue)
		return sched.Keep
	}
	if dep := slot.Dep; dep > s.cycle {
		s.note(dep)
		if dep-s.cycle > s.params.DeschedulePast {
			// Two-level rule: swap out on a long-latency dependence.
			s.disp.Park(wIdx, dep)
			return sched.Deschedule
		}
		return sched.Keep
	}
	w := s.disp.Warp(wIdx)
	return s.issue(wIdx, w, slot, &w.Code.Prog.Insts[w.PC])
}

// issue executes one warp instruction, sets the warp's readiness terms
// for its next one, and reports to the scheduler whether the warp stays
// in the active set (Issued) or leaves it on a barrier or exit
// (IssuedGone).
func (s *SM) issue(wIdx int, w *dispatch.Warp, slot *dispatch.Slot, wi *isa.Inst) sched.Action {
	out := w.Outcomes[w.PC]
	// The issuing warp's stream owns every event of this instruction;
	// the memory pipeline files into the same books.
	stream := s.disp.Stream(wIdx)
	c := &s.streams[stream]
	s.mem.Charge(c)
	if s.prof != nil {
		s.lastStream = stream
		s.prof.Issue(s.cycle, stream)
		// The heatmap needs the model's per-bank tallies, which only an
		// evaluation leaves behind; timing uses the replayed outcome.
		var flat isa.WarpInst
		w.Code.Decode(w.PC, &flat)
		s.bankModel.Evaluate(&flat)
		acc, conf := s.prof.Heat()
		s.bankModel.HeatInto(acc, conf)
	}
	w.ArbStall = out.Arbitration && out.ExtraCycles() > 0
	c.WarpInsts++
	c.ThreadInsts += int64(wi.ActiveThreads())
	if wi.Spill {
		c.SpillInsts++
	}
	c.RecordConflict(int(out.MaxPerBank))
	if out.Arbitration {
		c.ArbitrationConflicts++
	}
	c.RecordRegAccesses(w.Code.Prog.RegAccesses(w.PC))

	// Bank-conflict serialization follows the paper's §6.1 model: each
	// access beyond the first to the most-contended bank delays *this*
	// instruction by one cycle — the issuing warp holds its own issue
	// stream and its result arrives late, but other warps keep issuing.
	// (The model tracks only within-instruction conflicts, as the paper's
	// does; there is no cross-instruction bank port contention.)
	extra := int64(out.ExtraCycles())
	s.slotFreeAt = s.cycle + 1
	slot.Issue = s.cycle + 1 + extra

	complete := s.cycle + 1
	switch wi.Op {
	case isa.OpALU, isa.OpNop:
		complete = s.cycle + s.params.ALULatency + extra
	case isa.OpSFU:
		complete = s.cycle + s.params.SFULatency + extra
	case isa.OpLDS:
		complete = s.cycle + s.params.SharedLatency + extra
		c.SharedReads += int64(out.MemAccesses)
	case isa.OpSTS:
		c.SharedWrites += int64(out.MemAccesses)
	case isa.OpLDG:
		complete = s.mem.LoadFootprint(w.Footprints.At(w.Code.Prog.Global(w.PC)), s.cycle, extra)
	case isa.OpSTG:
		s.mem.StoreFootprint(w.Footprints.At(w.Code.Prog.Global(w.PC)), s.cycle, extra)
	case isa.OpTEX:
		complete = s.mem.TexFootprint(w.Footprints.At(w.Code.Prog.Global(w.PC)), s.cycle)
	case isa.OpBAR:
		s.disp.Barrier(wIdx, s.cycle) // advances PC past the BAR
		slot.Dep = w.DepReady()
		return sched.IssuedGone
	case isa.OpEXIT:
		s.disp.Exit(wIdx, s.cycle)
		return sched.IssuedGone
	}

	if wi.Dst.Reg != isa.NoReg {
		if complete > w.RegReady[wi.Dst.Reg] {
			w.RegReady[wi.Dst.Reg] = complete
		}
	}
	w.PC++
	slot.Dep = w.DepReady()
	return sched.Issued
}
