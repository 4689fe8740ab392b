package workloads

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/banks"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/kgen"
	"repro/internal/memsys"
	"repro/internal/sm"
)

// freshSource returns a Source for the named registry kernel.
func freshSource(t *testing.T, name string) *Source {
	t.Helper()
	k, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return &Source{K: k}
}

// TestTraceCacheSharesBacking: two Sources with identical parameters must
// hand out the same program and operand table — the trace is built
// once, process-wide.
func TestTraceCacheSharesBacking(t *testing.T) {
	ResetTraceCache()
	a := freshSource(t, "needle").WarpCode(0, 0)
	b := freshSource(t, "needle").WarpCode(0, 0)
	if a.Len() == 0 {
		t.Fatal("empty trace")
	}
	if a != b {
		t.Error("identical sources built the trace twice (distinct tables)")
	}
}

// TestTraceCacheColdVsHot: a cache flush must not change the generated
// instructions — rebuilds are deterministic. (DeepEqual follows the
// address pointers, so this compares full address vectors, not
// pointers.)
func TestTraceCacheColdVsHot(t *testing.T) {
	ResetTraceCache()
	src := freshSource(t, "mummer")
	_, warps := src.Grid()
	cold := make([]isa.WarpCode, warps)
	for w := 0; w < warps; w++ {
		cold[w] = src.WarpCode(0, w)
	}
	ResetTraceCache()
	for w := 0; w < warps; w++ {
		hot := src.WarpCode(0, w)
		if hot.Ops == cold[w].Ops || hot.Prog == cold[w].Prog {
			t.Fatalf("warp %d: flush did not drop the cached entry", w)
		}
		if !reflect.DeepEqual(cold[w].AppendFlat(nil), hot.AppendFlat(nil)) {
			t.Fatalf("warp %d: trace differs after cache flush", w)
		}
	}
}

// TestTraceCacheKeyDistinguishesVariants: kernels that share a registry
// name but differ in blocking factor or register budget must not collide
// in the cache, nor share programs.
func TestTraceCacheKeyDistinguishesVariants(t *testing.T) {
	ResetTraceCache()
	k16 := NeedleKernel(16)
	k64 := NeedleKernel(64)
	t16 := (&Source{K: k16}).WarpCode(0, 0)
	t64 := (&Source{K: k64}).WarpCode(0, 0)
	if t16.Ops == t64.Ops || t16.Prog == t64.Prog {
		t.Fatal("needle BF=16 and BF=64 shared one cache entry")
	}

	full := freshSource(t, "needle").WarpCode(0, 0)
	k, _ := ByName("needle")
	spilled := (&Source{K: k, RegsAvail: 18}).WarpCode(0, 0)
	if full.Ops == spilled.Ops || full.Prog == spilled.Prog {
		t.Fatal("spill-free and regsAvail=18 traces shared one cache entry")
	}
}

// TestTraceCacheConcurrent hammers one kernel's traces, outcome tables
// and footprint tables from 8 goroutines; under -race this proves the
// cache is safe, and the pointer comparison proves each entry was built
// exactly once.
func TestTraceCacheConcurrent(t *testing.T) {
	ResetTraceCache()
	src := freshSource(t, "needle")
	ctas, warps := src.Grid()
	if ctas > 4 {
		ctas = 4
	}
	const goroutines = 8
	traces := make([][]isa.WarpCode, goroutines)
	outs := make([][]*banks.Outcome, goroutines)
	fps := make([][]*memsys.Footprints, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := &Source{K: src.K} // distinct Source, same identity
			for c := 0; c < ctas; c++ {
				for w := 0; w < warps; w++ {
					tr := s.WarpCode(c, w)
					traces[g] = append(traces[g], tr)
					out := s.WarpOutcomes(c, w, config.Unified, false)
					if len(out) != tr.Len() {
						t.Errorf("goroutine %d: %d outcomes for %d instructions", g, len(out), tr.Len())
						return
					}
					outs[g] = append(outs[g], &out[0])
					fps[g] = append(fps[g], s.WarpFootprints(c, w))
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if !reflect.DeepEqual(traces[0], traces[g]) {
			t.Errorf("goroutine %d saw different trace tables than goroutine 0", g)
		}
		if !reflect.DeepEqual(outs[0], outs[g]) {
			t.Errorf("goroutine %d saw different outcome backing arrays than goroutine 0", g)
		}
		for i := range fps[0] {
			if fps[g][i] != fps[0][i] {
				t.Errorf("goroutine %d warp %d: footprint table built twice", g, i)
				break
			}
		}
	}
}

// TestWarpOutcomesMatchEvaluate is the differential check behind the
// timing core's fast paths, over every registry kernel: for every
// bank-model variant, the memoized outcome table must equal a fresh
// Model's per-instruction evaluation, and every global-memory
// instruction's memoized footprint, read at its ordinal, must equal the
// lines, sectors and distinct-address count the memory pipeline computes
// from the instruction itself.
func TestWarpOutcomesMatchEvaluate(t *testing.T) {
	ResetTraceCache()
	m := memsys.New(memsys.Config{}, nil, nil)
	for _, k := range All() {
		src := &Source{K: k}
		insts := src.WarpTrace(0, 0)
		for _, design := range []config.Design{config.Partitioned, config.Unified, config.FermiLike} {
			for _, aggressive := range []bool{false, true} {
				got := src.WarpOutcomes(0, 0, design, aggressive)
				bm := banks.New(design)
				if aggressive {
					bm = banks.NewAggressive(design)
				}
				for i := range insts {
					want := bm.Evaluate(&insts[i])
					if got[i] != want {
						t.Fatalf("%s design=%v aggressive=%v inst %d: memoized %+v, evaluated %+v",
							k.Name, design, aggressive, i, got[i], want)
					}
				}
			}
		}
		fps, prog := src.WarpFootprints(0, 0), src.WarpCode(0, 0).Prog
		for i := range insts {
			if !insts[i].Op.IsGlobal() {
				continue
			}
			got, want := fps.At(prog.Global(i)), m.Footprint(&insts[i])
			if got.Lines() != want.Lines() || got.Distinct() != want.Distinct() ||
				got.Active() != want.Active() || got.Addr0() != want.Addr0() {
				t.Fatalf("%s inst %d: memoized %d lines/%d distinct/%d active/addr0 %#x, computed %d/%d/%d/%#x",
					k.Name, i, got.Lines(), got.Distinct(), got.Active(), got.Addr0(),
					want.Lines(), want.Distinct(), want.Active(), want.Addr0())
			}
			for j := 0; j < want.Lines(); j++ {
				gl, gs := got.Line(j)
				wl, ws := want.Line(j)
				if gl != wl || gs != ws {
					t.Fatalf("%s inst %d line %d: memoized (%#x, %#x), computed (%#x, %#x)", k.Name, i, j, gl, gs, wl, ws)
				}
			}
		}
	}
}

// TestTraceCacheLimitFlush: exceeding the byte budget flushes the cache,
// and rebuilt traces still match what in-flight holders kept.
func TestTraceCacheLimitFlush(t *testing.T) {
	ResetTraceCache()
	traceCacheLimit = 1 // flush on every charge
	defer func() { traceCacheLimit = DefaultTraceCacheLimit }()
	flushes := TraceCacheSnapshot().Flushes
	src := freshSource(t, "needle")
	first := src.WarpTrace(0, 0)
	second := src.WarpTrace(0, 0)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("rebuild after flush changed the trace")
	}
	if n := TraceCacheSnapshot().Flushes - flushes; n < 2 {
		t.Errorf("%d flushes for two builds over the limit, want at least 2", n)
	}
	traceCacheLimit = DefaultTraceCacheLimit
	ResetTraceCache()
	if b := TraceCacheSnapshot().Bytes; b != 0 {
		t.Fatalf("%d bytes cached after reset, want 0", b)
	}
}

// TestTraceCacheSnapshot asserts the exported statistics track lookups,
// builds, bytes, and flushes. Counters are process-monotonic, so the
// test measures deltas around its own traffic.
func TestTraceCacheSnapshot(t *testing.T) {
	ResetTraceCache()
	before := TraceCacheSnapshot()
	src := freshSource(t, "needle")
	src.WarpTrace(0, 0)                      // cold: one build
	src.WarpTrace(0, 0)                      // hot: no build
	freshSource(t, "needle").WarpTrace(0, 0) // hot via a second Source
	after := TraceCacheSnapshot()
	if got := after.Lookups - before.Lookups; got != 3 {
		t.Errorf("lookups delta = %d, want 3", got)
	}
	if got := after.Builds - before.Builds; got != 1 {
		t.Errorf("builds delta = %d, want 1", got)
	}
	if after.Bytes <= 0 {
		t.Errorf("bytes = %d, want > 0 after a build", after.Bytes)
	}
	if after.Limit <= 0 {
		t.Errorf("limit = %d, want > 0", after.Limit)
	}
	if hr := (TraceCacheStats{Lookups: 4, Builds: 1}).HitRatio(); hr != 0.75 {
		t.Errorf("HitRatio = %v, want 0.75", hr)
	}
	if hr := (TraceCacheStats{}).HitRatio(); hr != 0 {
		t.Errorf("zero-value HitRatio = %v, want 0", hr)
	}
	flushesBefore := after.Flushes
	ResetTraceCache()
	if got := TraceCacheSnapshot().Flushes - flushesBefore; got != 1 {
		t.Errorf("flushes delta = %d, want 1", got)
	}
	if got := TraceCacheSnapshot().Bytes; got != 0 {
		t.Errorf("bytes after reset = %d, want 0", got)
	}
}

// TestRunCountsOneLookupPerWarp: a simulation of a fresh grid counts
// exactly one lookup (and one build) per launched warp; the outcome and
// footprint tables its launches also request are not lookups.
func TestRunCountsOneLookupPerWarp(t *testing.T) {
	ResetTraceCache()
	src := freshSource(t, "vectoradd")
	before := TraceCacheSnapshot()
	m, err := sm.NewSM(sm.Spec{Config: config.Baseline(), Params: sm.DefaultParams(), Source: src, ResidentCTAs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	after := TraceCacheSnapshot()
	ctas, warps := src.Grid()
	if got := after.Lookups - before.Lookups; got != int64(ctas*warps) {
		t.Errorf("run of %d warps counted %d lookups, want one per warp", ctas*warps, got)
	}
	if got := after.Builds - before.Builds; got != int64(ctas*warps) {
		t.Errorf("run of a fresh %d-warp grid counted %d builds, want one per warp", ctas*warps, got)
	}
}

// TestTraceCacheChargesDistinctVectors: the bytes charged for a kernel's
// grid are the resident size of its tables. Its split traces hold each
// distinct program of the family once (16 bytes per record, and 4 per
// record for each of its reference and global-memory indexes), then per
// warp 4 bytes per address reference and its address arena, a slot per
// distinct irregular vector and one per isa.PairsPerSlot distinct
// affine vectors. Once every warp's outcome tables (all six variants)
// and footprint table are built too, the charge is the sum of the
// Bytes() of every distinct program and outcome table and of every
// warp's operand and footprint table.
func TestTraceCacheChargesDistinctVectors(t *testing.T) {
	for _, name := range []string{"needle", "bfs"} {
		ResetTraceCache()
		src := freshSource(t, name)
		src.RegsAvail = 12 // add spill code
		ctas, warps := src.Grid()
		var want, tables int64
		affineTotal := 0
		progs := make(map[*isa.Program]bool)
		for c := 0; c < ctas; c++ {
			for w := 0; w < warps; w++ {
				code := src.WarpCode(c, w)
				if !progs[code.Prog] {
					progs[code.Prog] = true
					want += int64(code.Len()) * int64(unsafe.Sizeof(isa.Inst{}))
					want += int64(code.Len()) * 2 // the register-access counts
					hasAddrs, global := false, false
					for i := range code.Prog.Insts {
						hasAddrs = hasAddrs || code.Prog.Insts[i].HasAddrs()
						global = global || code.Prog.Insts[i].Op.IsGlobal()
					}
					if hasAddrs {
						want += int64(code.Len()) * 4 // the reference index
					}
					if global {
						want += int64(code.Len()) * 4 // the global-memory index
					}
					tables += code.Prog.Bytes()
				}
				tables += code.Ops.Bytes()
				insts := code.AppendFlat(nil)
				irregular := make(map[isa.AddrVec]bool)
				affine := make(map[[2]uint32]bool)
				refs := 0
				for i := range insts {
					if !insts[i].HasAddrs() {
						continue
					}
					refs++
					if base, stride, vec := insts[i].AddrForm(); vec != nil {
						irregular[*vec] = true
					} else {
						affine[[2]uint32{base, stride}] = true
					}
				}
				slots := len(irregular) + (len(affine)+isa.PairsPerSlot-1)/isa.PairsPerSlot
				want += int64(refs)*4 + int64(slots)*int64(unsafe.Sizeof(isa.AddrVec{}))
				affineTotal += len(affine)
			}
		}
		if got := TraceCacheSnapshot().Bytes; got != want {
			t.Errorf("%s: charged %d bytes, the grid's traces hold %d", name, got, want)
		}
		if want != tables {
			t.Errorf("%s: the grid's traces hold %d bytes, their programs and operand tables report %d", name, want, tables)
		}
		if affineTotal == 0 {
			t.Errorf("%s: no affine vectors; the test no longer covers pair slots", name)
		}

		outcomes := make(map[*banks.Outcome]bool)
		for c := 0; c < ctas; c++ {
			for w := 0; w < warps; w++ {
				for _, design := range []config.Design{config.Partitioned, config.Unified, config.FermiLike} {
					for _, aggressive := range []bool{false, true} {
						out := src.WarpOutcomes(c, w, design, aggressive)
						if !outcomes[&out[0]] {
							outcomes[&out[0]] = true
							tables += int64(len(out)) * int64(unsafe.Sizeof(out[0]))
						}
					}
				}
				tables += src.WarpFootprints(c, w).Bytes()
			}
		}
		if got := TraceCacheSnapshot().Bytes; got != tables {
			t.Errorf("%s: charged %d bytes, the grid's tables report %d", name, got, tables)
		}
	}
	ResetTraceCache()
}

// TestFootprintsIndexedByGlobal: a warp's memoized footprint table holds
// one entry per global-memory instruction, read at the ordinal its
// program gives it. Each entry equals the footprint a reference
// per-instruction builder computes from the decoded flat instruction,
// no other instruction has an entry, and Bytes() is 4 per entry, one end
// offset and the arena's words.
func TestFootprintsIndexedByGlobal(t *testing.T) {
	ResetTraceCache()
	m := memsys.New(memsys.Config{}, nil, nil)
	// reference is one footprint per instruction: empty unless it is a
	// global-memory access with addresses.
	reference := func(flat []isa.WarpInst) []memsys.Footprint {
		ref := make([]memsys.Footprint, len(flat))
		for i := range flat {
			if flat[i].Op.IsGlobal() && flat[i].HasAddrs() {
				ref[i] = slices.Clone(m.Footprint(&flat[i]))
			}
		}
		return ref
	}
	for _, tc := range []struct {
		name string
		regs int
	}{{"needle", 0}, {"bfs", 12}, {"dgemm", 0}} {
		src := freshSource(t, tc.name)
		src.RegsAvail = tc.regs
		ctas, warps := src.Grid()
		for c := 0; c < ctas; c++ {
			for w := 0; w < warps; w++ {
				code, fps := src.WarpCode(c, w), src.WarpFootprints(c, w)
				flat := code.AppendFlat(nil)
				ref := reference(flat)
				globals, words := 0, 0
				for i := range flat {
					if !flat[i].Op.IsGlobal() {
						continue
					}
					if g := code.Prog.Global(i); g != globals {
						t.Fatalf("%s regs %d warp (%d, %d) inst %d: ordinal %d, want %d", tc.name, tc.regs, c, w, i, g, globals)
					}
					if got := fps.At(globals); !slices.Equal(got, ref[i]) {
						t.Fatalf("%s regs %d warp (%d, %d) inst %d (%v): footprint %v, want %v", tc.name, tc.regs, c, w, i, flat[i].Op, got, ref[i])
					}
					globals++
					words += len(ref[i])
				}
				if globals == 0 || code.Prog.Globals() != globals {
					t.Fatalf("%s regs %d warp (%d, %d): program counts %d global-memory instructions, the trace has %d", tc.name, tc.regs, c, w, code.Prog.Globals(), globals)
				}
				if want := int64(4 * (globals + 1 + words)); fps.Bytes() != want {
					t.Fatalf("%s regs %d warp (%d, %d): Bytes() = %d, want 4 x (%d globals + 1 + %d words) = %d", tc.name, tc.regs, c, w, fps.Bytes(), globals, words, want)
				}
			}
		}
	}
	ResetTraceCache()
}

// TestFamilySharesOneProgram: every warp of a family whose warps differ
// only in their addresses shares one program backing array, spill code
// included, while each keeps its own operand table.
func TestFamilySharesOneProgram(t *testing.T) {
	ResetTraceCache()
	for _, tc := range []struct {
		name string
		regs int
	}{{"needle", 0}, {"bfs", 12}, {"dgemm", 0}} {
		src := freshSource(t, tc.name)
		src.RegsAvail = tc.regs
		ctas, warps := src.Grid()
		first := src.WarpCode(0, 0)
		ops := make(map[*isa.Operands]bool)
		for c := 0; c < ctas; c++ {
			for w := 0; w < warps; w++ {
				code := src.WarpCode(c, w)
				if &code.Prog.Insts[0] != &first.Prog.Insts[0] {
					t.Fatalf("%s regs %d: warp (%d, %d) has a program of its own", tc.name, tc.regs, c, w)
				}
				ops[code.Ops] = true
			}
		}
		if len(ops) != ctas*warps {
			t.Errorf("%s regs %d: %d operand tables for %d warps", tc.name, tc.regs, len(ops), ctas*warps)
		}
	}
	ResetTraceCache()
}

// TestWarpTraceMatchesKgen: WarpTrace decodes the memoized split form
// back to exactly what a direct kgen build of the warp returns, on every
// field and every lane's address, for warps across the grid.
func TestWarpTraceMatchesKgen(t *testing.T) {
	ResetTraceCache()
	for _, tc := range []struct {
		name string
		regs int
	}{{"needle", 0}, {"bfs", 12}, {"dgemm", 0}, {"mummer", 0}} {
		src := freshSource(t, tc.name)
		src.RegsAvail = tc.regs
		ctas, warps := src.Grid()
		for _, cw := range [][2]int{{0, 0}, {ctas - 1, warps - 1}, {ctas / 2, warps / 2}} {
			c, w := cw[0], cw[1]
			got := src.WarpTrace(c, w)
			want := directBuild(src, c, w)
			if len(got) != len(want) {
				t.Fatalf("%s (%d, %d): %d instructions, kgen builds %d", tc.name, c, w, len(got), len(want))
			}
			for i := range want {
				g, x := &got[i], &want[i]
				if g.Hot() != x.Hot() {
					t.Fatalf("%s (%d, %d) inst %d: decoded %v, kgen %v", tc.name, c, w, i, g, x)
				}
				if !x.HasAddrs() {
					continue
				}
				for l := 0; l < isa.WarpSize; l++ {
					if g.Addr(l) != x.Addr(l) {
						t.Fatalf("%s (%d, %d) inst %d lane %d: address %#x, kgen %#x", tc.name, c, w, i, l, g.Addr(l), x.Addr(l))
					}
				}
			}
		}
	}
}

// directBuild builds one warp's flat trace through kgen, as the trace
// cache does, without the cache.
func directBuild(s *Source, cta, warp int) []isa.WarpInst {
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
	return b.Finish()
}

// TestInternedOutcomesMatchOutcomes: in every bank-model variant, each
// warp's interned outcome table equals banks.Outcomes over its decoded
// trace, and warps whose tables are equal share one backing array.
func TestInternedOutcomesMatchOutcomes(t *testing.T) {
	ResetTraceCache()
	shared := false
	for _, name := range []string{"bfs", "needle"} {
		src := freshSource(t, name)
		ctas, warps := src.Grid()
		for _, design := range []config.Design{config.Partitioned, config.Unified, config.FermiLike} {
			for _, aggressive := range []bool{false, true} {
				var tables [][]banks.Outcome
				for c := 0; c < min(ctas, 4); c++ {
					for w := 0; w < warps; w++ {
						got := src.WarpOutcomes(c, w, design, aggressive)
						want := banks.Outcomes(design, aggressive, src.WarpTrace(c, w))
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s design %v aggressive %v warp (%d, %d): interned table differs from banks.Outcomes", name, design, aggressive, c, w)
						}
						for _, prev := range tables {
							if reflect.DeepEqual(prev, got) {
								if &prev[0] != &got[0] {
									t.Fatalf("%s design %v aggressive %v warp (%d, %d): equal tables not shared", name, design, aggressive, c, w)
								}
								shared = true
							}
						}
						tables = append(tables, got)
					}
				}
			}
		}
	}
	if !shared {
		t.Error("no two warps had equal outcome tables; the test no longer covers sharing")
	}
}
