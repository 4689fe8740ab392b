// Package workloads defines synthetic equivalents of the 26 CUDA
// benchmarks characterized in Table 1 of the paper.
//
// The original evaluation traced real binaries (Rodinia, CUDA SDK, Parboil,
// MAGMA, GPGPU-Sim workloads) through Ocelot. Those binaries and traces are
// not available here, so each benchmark is re-expressed as a kernel
// generator that reproduces the characteristics the paper's study depends
// on: registers per thread to avoid spills, shared memory per CTA and per
// thread, CTA geometry, arithmetic intensity, and — most importantly — the
// memory access pattern (streaming, stencil, tiled with reuse, broadcast
// reuse, or divergent gather) that determines cache behaviour and DRAM
// traffic. Problem sizes are scaled down so a full grid simulates in
// milliseconds, as the paper itself scaled inputs for tractability.
package workloads

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/kgen"
)

// Category is the Table 1 grouping of a workload.
type Category uint8

const (
	// SharedLimited benchmarks want more scratchpad than the baseline has.
	SharedLimited Category = iota
	// CacheLimited benchmarks want a (larger) primary data cache.
	CacheLimited
	// RegisterLimited benchmarks want a larger register file.
	RegisterLimited
	// Balanced benchmarks fit the baseline partitioning.
	Balanced
)

// String names the category as in Table 1.
func (c Category) String() string {
	switch c {
	case SharedLimited:
		return "shared-memory limited"
	case CacheLimited:
		return "cache limited"
	case RegisterLimited:
		return "register limited"
	case Balanced:
		return "balanced / minimal"
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// Address-space layout shared by all kernels. Data regions start at 0;
// register spill slots live far above any data so spill traffic and data
// traffic never alias.
const (
	// SpillRegionBase is the global address of thread-local spill space.
	SpillRegionBase uint32 = 0xC000_0000
	// spillBytesPerWarp is one warp's spill footprint: 64 registers x 32
	// lanes x 4 bytes.
	spillBytesPerWarp = isa.MaxRegs * isa.WarpSize * 4
)

// Env carries per-warp generation context into kernel emitters.
type Env struct {
	// CTA and Warp identify the warp within the grid.
	CTA, Warp int
	// WarpsPerCTA is the kernel's CTA size in warps.
	WarpsPerCTA int
	// BF is the blocking factor for kernels that have one (needle).
	BF int
	// Rng is seeded deterministically per (kernel, cta, warp).
	Rng *rand.Rand
}

// GlobalWarp returns the grid-wide warp index.
func (e *Env) GlobalWarp() int { return e.CTA*e.WarpsPerCTA + e.Warp }

// WarpBase returns a per-warp byte offset with the given stride, used to
// give each warp a private slice of a global array.
func (e *Env) WarpBase(stride uint32) uint32 { return uint32(e.GlobalWarp()) * stride }

// Kernel is one benchmark.
type Kernel struct {
	// Name is the benchmark name as it appears in Table 1.
	Name string
	// Suite attributes the original benchmark.
	Suite string
	// Category is the Table 1 grouping.
	Category Category
	// Description summarizes what the original computes.
	Description string

	// RegsNeeded is registers/thread to avoid spills (Table 1, col 2).
	RegsNeeded int
	// ThreadsPerCTA is the CTA size (multiple of 32).
	ThreadsPerCTA int
	// SharedBytesPerCTA is the scratchpad footprint of one CTA.
	SharedBytesPerCTA int
	// GridCTAs is the (scaled) grid size.
	GridCTAs int
	// BF is the default blocking factor, for kernels that have one.
	BF int

	// Emit generates the body of one warp. The builder has spilling and
	// placement configured by the Source; Emit only describes computation.
	Emit func(b *kgen.Builder, e *Env)
}

// Requirements converts the kernel's static needs into the form the §4.5
// allocation algorithm consumes.
func (k *Kernel) Requirements() config.KernelRequirements {
	return config.KernelRequirements{
		RegsPerThread:     k.RegsNeeded,
		SharedBytesPerCTA: k.SharedBytesPerCTA,
		ThreadsPerCTA:     k.ThreadsPerCTA,
	}
}

// WarpsPerCTA returns the CTA size in warps.
func (k *Kernel) WarpsPerCTA() int { return k.ThreadsPerCTA / isa.WarpSize }

// SharedBytesPerThread returns the per-thread scratchpad footprint.
func (k *Kernel) SharedBytesPerThread() float64 {
	if k.ThreadsPerCTA == 0 {
		return 0
	}
	return float64(k.SharedBytesPerCTA) / float64(k.ThreadsPerCTA)
}

// Source adapts a kernel to the simulator's TraceSource interface,
// configuring the register budget (for spill studies) and deterministic
// per-warp seeding.
//
// WarpCode is memoized process-wide (see tracecache.go): all Sources
// with the same (kernel name, BF, RegsAvail, Seed) share one immutable
// copy of each warp's trace, so capacity sweeps replay a trace instead
// of rebuilding it per configuration point.
type Source struct {
	// K is the kernel to run.
	K *Kernel
	// RegsAvail is the per-thread physical register allocation; 0 or
	// >= K.RegsNeeded disables spilling.
	RegsAvail int
	// Seed perturbs the per-warp RNG streams.
	Seed uint64
}

// Grid implements sm.TraceSource.
func (s *Source) Grid() (int, int) { return s.K.GridCTAs, s.K.WarpsPerCTA() }

// WarpTrace returns one warp's trace in flat form, decoded from the
// memoized split form (WarpCode) into a fresh slice the caller owns.
// The simulator replays WarpCode; this serves callers that want flat
// instructions, such as trace.Record.
func (s *Source) WarpTrace(cta, warp int) []isa.WarpInst {
	c := s.WarpCode(cta, warp)
	return c.AppendFlat(make([]isa.WarpInst, 0, c.Len()))
}

// buildWarpCode constructs one warp's trace through kgen, which inserts
// spill code and operand placements, appending its hot records to insts
// and returning them with its operand table. It is deterministic in
// (kernel, RegsAvail, Seed, cta, warp), which is what makes memoization
// exact.
func (s *Source) buildWarpCode(cta, warp int, insts []isa.Inst) ([]isa.Inst, isa.Operands) {
	e := &Env{
		CTA:         cta,
		Warp:        warp,
		WarpsPerCTA: s.K.WarpsPerCTA(),
		BF:          s.K.BF,
		Rng:         rand.New(rand.NewPCG(s.Seed^0x9E3779B97F4A7C15, uint64(cta)<<20|uint64(warp))),
	}
	b := kgen.NewBuilder(kgen.Config{
		RegsAvail: s.RegsAvail,
		SpillBase: SpillRegionBase + uint32(e.GlobalWarp()%2048)*spillBytesPerWarp,
	})
	s.K.Emit(b, e)
	return b.FinishSplit(insts)
}

// registry is populated by the kernel definition files.
var registry []*Kernel

// register adds a kernel at package init time.
func register(k *Kernel) *Kernel {
	if k.ThreadsPerCTA%isa.WarpSize != 0 || k.ThreadsPerCTA == 0 {
		panic(fmt.Sprintf("workloads: %s has bad CTA size %d", k.Name, k.ThreadsPerCTA))
	}
	if k.RegsNeeded < 1 || k.RegsNeeded > isa.MaxRegs {
		panic(fmt.Sprintf("workloads: %s has bad register demand %d", k.Name, k.RegsNeeded))
	}
	registry = append(registry, k)
	return k
}

// All returns every benchmark, sorted by name.
func All() []*Kernel {
	out := make([]*Kernel, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName looks a benchmark up by its Table 1 name.
func ByName(name string) (*Kernel, error) {
	for _, k := range registry {
		if k.Name == name {
			return k, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// BenefitSet returns the eight benchmarks of Figure 9 (those that gain
// from unified memory), sorted by name.
func BenefitSet() []*Kernel {
	names := []string{"bfs", "dgemm", "lu", "mummer", "pcr", "ray", "srad", "needle"}
	out := make([]*Kernel, 0, len(names))
	for _, n := range names {
		k, err := ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NoBenefitSet returns the Figure 7 benchmarks (all others), sorted by name.
func NoBenefitSet() []*Kernel {
	benefit := make(map[string]bool)
	for _, k := range BenefitSet() {
		benefit[k.Name] = true
	}
	var out []*Kernel
	for _, k := range All() {
		if !benefit[k.Name] {
			out = append(out, k)
		}
	}
	return out
}

// Categories returns the benchmarks of one Table 1 group, sorted by name.
func Categories(c Category) []*Kernel {
	var out []*Kernel
	for _, k := range All() {
		if k.Category == c {
			out = append(out, k)
		}
	}
	return out
}
