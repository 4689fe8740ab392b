// Trace memoization: every simulation of a kernel replays the same
// per-warp instruction streams, because a warp's trace depends only on
// the kernel (name and blocking factor), the physical register budget
// (which decides spill code), and the workload seed (which drives the
// divergent-gather RNG streams) — never on the memory configuration the
// timing model sweeps. The experiment drivers therefore regenerate each
// distinct trace hundreds of times while sweeping capacities, and the
// kgen builder (register allocation, operand placement, address
// generation) dominated both CPU and allocation profiles.
//
// This file makes the amortization structural: a process-wide,
// concurrency-safe cache keyed by (kernel name, BF, regsAvail, seed)
// builds each per-warp stream exactly once and hands the same immutable
// tables to every replay. The timing core only reads traces (the warp's
// PC and scoreboard live in dispatch.Warp, not in the instructions), so
// sharing them across concurrently simulated SMs is safe; a -race
// fan-out test and the golden-table suite pin that down.
//
// A trace is kept in split form (isa.WarpCode), the way a GPU keeps one
// copy of a kernel's code for all its warps: a program of 16-byte hot
// records (op, operands and their placement, mask, flags), and a
// per-warp operand table holding the warp's address arena and one
// 4-byte reference into it per memory instruction. The warps of a
// family almost always run one op stream and differ only in their
// addresses, so the cache interns programs per family by content
// (isa.ProgramSet): a new warp's records are compared with the
// family's programs and reuse an equal one, and a warp whose stream
// differs gets a program of its own. A paper-suite pass builds 59
// families of 10,288 warps and keeps one program per family.
//
// Alongside each warp trace the cache memoizes the banks.Outcome of
// every instruction per (design, aggressive-scatter) variant: the bank
// conflict outcome is a pure function of the instruction and the design,
// so timing runs replay it as a table lookup instead of re-evaluating
// the conflict model per issue. Outcome tables are interned per
// (family, variant) like programs, since warps that touch their banks
// alike have equal tables (4,041 distinct of the 28,960 a paper-suite
// pass evaluates). Probed runs replay the same tables and evaluate only
// for the bank heatmap, which needs the model's per-bank tallies; a
// differential test asserts lookup and evaluation never disagree.
//
// It also memoizes each warp's global-memory footprints (memsys.Footprints:
// per LDG/STG/TEX, its distinct lines in first-lane order, their sector
// masks and its distinct-address count). They depend only on the address
// vector and the fixed line size, so one table per warp serves every
// design and variant, probed runs included, and no issue rescans an
// address vector. Outcome tables are index-aligned with the warp's
// program, one entry per instruction; a footprint table has an entry
// only per global-memory instruction, indexed by its ordinal among them
// (isa.Program.Global, which the family's warps share like the rest of
// the program), since only LDG/STG/TEX have footprints (about one
// instruction in seven in a paper-suite pass). The builder decodes only
// those instructions from the split trace.
//
// The memoized tables hold only what they need: kgen hands each trace
// over in split form (its growable build buffers are pooled, not kept),
// with its distinct address vectors once each in one exact-size arena
// (isa.Packer). An irregular vector takes a 128-byte slot of it; an
// affine one (base + lane*stride on every lane, most of them) is a
// (base, stride) pair, isa.PairsPerSlot pairs to a slot. A banks.Outcome
// packs into three bytes, and a footprint table is one exact-size
// allocation, so the resident set is the tables themselves, with no
// append slack and no vector repeated within a warp. The cache charges
// a program once, 16 bytes per record plus 4 per instruction for each
// of its reference and global-memory indexes; each warp 4 bytes per
// reference and 128 per arena slot; each distinct outcome table 3 bytes
// per instruction; and each warp's footprint table 4 bytes per
// global-memory instruction, 4 for its end offset, and 4 per arena word.
//
// Memory is bounded: the cache tracks an approximate byte footprint and
// flushes itself entirely when it would exceed the budget (entries are
// rebuilt on demand; in-flight simulations keep their tables). Flushing
// never affects results — only whether a trace is rebuilt.
package workloads

import (
	"hash/maphash"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/banks"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memsys"
)

// traceKey identifies one distinct trace family. Kernel identity is
// (Name, BF): registry kernels have unique names, and the Figure 11
// needle variants share a name but differ in blocking factor.
type traceKey struct {
	name      string
	bf        int
	regsAvail int
	seed      uint64
}

// warpEntry memoizes one warp's trace in split form, its per-variant
// bank outcomes, and its global-memory footprints. Each field is built
// at most once; the built tables are never written again.
type warpEntry struct {
	family *gridEntry

	codeOnce sync.Once
	code     isa.WarpCode
	ops      isa.Operands // code.Ops

	outcomes [banks.Variants]struct {
		once sync.Once
		out  []banks.Outcome
	}

	footprintOnce sync.Once
	footprints    *memsys.Footprints
}

// gridEntry holds one trace family's warps, keyed by (cta, warp), and
// the distinct programs and outcome tables they share, each indexed by
// its content hash. Warps are filled lazily so sources that extend the
// grid (the chip simulator's replicated validation source) memoize
// naturally.
type gridEntry struct {
	mu       sync.Mutex
	warps    map[[2]int]*warpEntry
	progs    isa.ProgramSet
	outcomes [banks.Variants]map[uint64][][]banks.Outcome
}

func (g *gridEntry) warp(cta, warp int) *warpEntry {
	g.mu.Lock()
	e, ok := g.warps[[2]int{cta, warp}]
	if !ok {
		e = &warpEntry{family: g}
		g.warps[[2]int{cta, warp}] = e
	}
	g.mu.Unlock()
	return e
}

// program returns the family's program whose records equal insts,
// adding a copy when there is none, and whether it added one.
func (g *gridEntry) program(insts []isa.Inst) (*isa.Program, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.progs.Intern(insts)
}

// outcomeTable returns the family's outcome table of variant v equal to
// out, adding an exact-size copy when there is none, and whether it
// added one.
func (g *gridEntry) outcomeTable(v int, out []banks.Outcome) ([]banks.Outcome, bool) {
	var h uint64
	if len(out) > 0 {
		// An Outcome has no padding, so equal tables have equal bytes.
		h = maphash.Bytes(outcomeSeed, unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), len(out)*int(unsafe.Sizeof(out[0]))))
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.outcomes[v] == nil {
		g.outcomes[v] = make(map[uint64][][]banks.Outcome)
	}
	for _, t := range g.outcomes[v][h] {
		if slices.Equal(t, out) {
			return t, false
		}
	}
	t := make([]banks.Outcome, len(out))
	copy(t, out)
	g.outcomes[v][h] = append(g.outcomes[v][h], t)
	return t, true
}

// outcomeSeed seeds the content hash of outcome tables.
var outcomeSeed = maphash.MakeSeed()

// Scratch buffers a build fills before interning or an exact-size copy.
var (
	instScratch    = sync.Pool{New: func() any { return new([]isa.Inst) }}
	outcomeScratch = sync.Pool{New: func() any { return new([]banks.Outcome) }}
)

// traceCache is the process-wide cache state. The lookup/build/flush
// counters are monotonic over the process lifetime (a flush does not
// reset them) so long-lived consumers — the simulation service's
// /metrics endpoint — can export rates and hit ratios.
var traceCache = struct {
	mu      sync.RWMutex
	grids   map[traceKey]*gridEntry
	bytes   atomic.Int64
	lookups atomic.Int64
	builds  atomic.Int64
	flushes atomic.Int64
}{grids: make(map[traceKey]*gridEntry)}

// TraceCacheStats is a point-in-time snapshot of the process-wide trace
// cache, exported for observability (cmd/smserve's /metrics).
type TraceCacheStats struct {
	// Lookups counts warp-trace requests; Builds counts the subset that
	// had to construct the trace. Lookups - Builds is the hit count.
	Lookups int64 `json:"lookups"`
	Builds  int64 `json:"builds"`
	// Flushes counts whole-cache evictions forced by the byte budget
	// (plus explicit ResetTraceCache calls).
	Flushes int64 `json:"flushes"`
	// Bytes is the approximate resident footprint; Limit the budget.
	Bytes int64 `json:"bytes"`
	Limit int64 `json:"limit"`
}

// HitRatio returns the fraction of lookups served without a build, or 0
// before any lookup.
func (s TraceCacheStats) HitRatio() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Lookups-s.Builds) / float64(s.Lookups)
}

// TraceCacheSnapshot returns the cache's current statistics. Counters
// are read individually without a lock: the snapshot is approximate
// under concurrency, like every metrics read.
func TraceCacheSnapshot() TraceCacheStats {
	return TraceCacheStats{
		Lookups: traceCache.lookups.Load(),
		Builds:  traceCache.builds.Load(),
		Flushes: traceCache.flushes.Load(),
		Bytes:   traceCache.bytes.Load(),
		Limit:   traceCacheLimit,
	}
}

// DefaultTraceCacheLimit is the default approximate byte budget of the
// trace cache; the full 15-experiment suite stays well inside it.
const DefaultTraceCacheLimit = int64(1) << 31 // 2 GiB

// traceCacheLimit is the budget charge enforces; reaching it flushes the
// whole cache (entries rebuild on demand). It is a variable only so that
// tests can force flushes.
var traceCacheLimit = DefaultTraceCacheLimit

// ResetTraceCache empties the trace cache (for tests and long-lived
// processes that want to release memory). Simulations in flight keep
// the slices they already hold.
func ResetTraceCache() {
	traceCache.mu.Lock()
	traceCache.grids = make(map[traceKey]*gridEntry)
	traceCache.bytes.Store(0)
	traceCache.flushes.Add(1)
	traceCache.mu.Unlock()
}

// grid returns (creating if needed) the cache entry for key.
func grid(key traceKey) *gridEntry {
	traceCache.mu.RLock()
	g, ok := traceCache.grids[key]
	traceCache.mu.RUnlock()
	if ok {
		return g
	}
	traceCache.mu.Lock()
	g, ok = traceCache.grids[key]
	if !ok {
		g = &gridEntry{warps: make(map[[2]int]*warpEntry)}
		traceCache.grids[key] = g
	}
	traceCache.mu.Unlock()
	return g
}

// charge adds an approximate byte count and flushes the cache when the
// budget is exceeded. The flush drops the whole map — simple, safe
// (entries rebuild deterministically), and rare enough not to matter.
func charge(n int64) {
	if traceCache.bytes.Add(n) > traceCacheLimit {
		ResetTraceCache()
	}
}

// key returns the source's trace-cache key.
func (s *Source) key() traceKey {
	return traceKey{name: s.K.Name, bf: s.K.BF, regsAvail: s.RegsAvail, seed: s.Seed}
}

// cachedWarp returns the memoized entry for one warp, building its
// trace on first use, and counts the request as a lookup.
func (s *Source) cachedWarp(cta, warp int) *warpEntry {
	traceCache.lookups.Add(1)
	return s.entry(cta, warp)
}

// entry is cachedWarp without the lookup count, for the outcome and
// footprint tables a launch requests after the trace itself, so a
// launch counts one lookup. A new warp's program joins the family's
// when equal to one of them; the warp is charged its operand table,
// and the program its records once.
func (s *Source) entry(cta, warp int) *warpEntry {
	e := grid(s.key()).warp(cta, warp)
	e.codeOnce.Do(func() {
		traceCache.builds.Add(1)
		buf := instScratch.Get().(*[]isa.Inst)
		insts, ops := s.buildWarpCode(cta, warp, (*buf)[:0])
		prog, added := e.family.program(insts)
		*buf = insts
		instScratch.Put(buf)
		e.ops = ops
		e.code = isa.WarpCode{Prog: prog, Ops: &e.ops}
		n := ops.Bytes()
		if added {
			n += prog.Bytes()
		}
		charge(n)
	})
	return e
}

// WarpCode implements sm.TraceSource, serving the memoized trace of one
// warp in split form: the program its family shares and its own
// operand table, built on first use for this (kernel, RegsAvail, Seed,
// cta, warp) combination. Both are shared and immutable.
func (s *Source) WarpCode(cta, warp int) isa.WarpCode { return s.cachedWarp(cta, warp).code }

// WarpOutcomes returns the memoized per-instruction bank-conflict
// outcomes of one warp under the given bank-model variant, or nil for a
// design outside the known enum. Warps of a family whose tables are
// equal share one; the returned slice is shared and immutable, and it
// is index-aligned with WarpCode(cta, warp).
func (s *Source) WarpOutcomes(cta, warp int, design config.Design, aggressive bool) []banks.Outcome {
	v := banks.Variant(design, aggressive)
	if v < 0 {
		return nil
	}
	e := s.entry(cta, warp)
	slot := &e.outcomes[v]
	slot.once.Do(func() {
		m := banks.New(design)
		if aggressive {
			m = banks.NewAggressive(design)
		}
		bp := outcomeScratch.Get().(*[]banks.Outcome)
		out := (*bp)[:0]
		var wi isa.WarpInst
		for i := range e.code.Len() {
			e.code.Decode(i, &wi)
			out = append(out, m.Evaluate(&wi))
		}
		table, added := e.family.outcomeTable(v, out)
		*bp = out
		outcomeScratch.Put(bp)
		slot.out = table
		if added {
			charge(int64(len(table)) * int64(unsafe.Sizeof(banks.Outcome{})))
		}
	})
	return slot.out
}

// WarpFootprints returns the memoized global-memory footprints of one
// warp: per global-memory instruction, its distinct lines and sector
// masks and its distinct-address count. A footprint depends only on the
// instruction's mask and address vector (the line size is fixed), so
// one table serves every design, variant and probe setting. The table
// is shared and immutable; it is indexed by the global-memory ordinal
// of WarpCode(cta, warp)'s program (isa.Program.Global).
func (s *Source) WarpFootprints(cta, warp int) *memsys.Footprints {
	e := s.entry(cta, warp)
	e.footprintOnce.Do(func() {
		e.footprints = memsys.NewFootprints(e.code)
		charge(e.footprints.Bytes())
	})
	return e.footprints
}
