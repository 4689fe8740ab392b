package workloads

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/banks"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memsys"
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
// hand out the same backing array — the trace is built once, process-wide.
func TestTraceCacheSharesBacking(t *testing.T) {
	ResetTraceCache()
	a := freshSource(t, "needle").WarpTrace(0, 0)
	b := freshSource(t, "needle").WarpTrace(0, 0)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if &a[0] != &b[0] {
		t.Error("identical sources built the trace twice (distinct backing arrays)")
	}
}

// TestTraceCacheColdVsHot: a cache flush must not change the generated
// instructions — rebuilds are deterministic. (DeepEqual follows the
// Addrs pointers, so this compares full address vectors, not pointers.)
func TestTraceCacheColdVsHot(t *testing.T) {
	ResetTraceCache()
	src := freshSource(t, "mummer")
	_, warps := src.Grid()
	cold := make([][]isa.WarpInst, warps)
	for w := 0; w < warps; w++ {
		cold[w] = src.WarpTrace(0, w)
	}
	ResetTraceCache()
	for w := 0; w < warps; w++ {
		hot := src.WarpTrace(0, w)
		if &hot[0] == &cold[w][0] {
			t.Fatalf("warp %d: flush did not drop the cached entry", w)
		}
		if !reflect.DeepEqual(cold[w], hot) {
			t.Fatalf("warp %d: trace differs after cache flush", w)
		}
	}
}

// TestTraceCacheKeyDistinguishesVariants: kernels that share a registry
// name but differ in blocking factor or register budget must not collide
// in the cache.
func TestTraceCacheKeyDistinguishesVariants(t *testing.T) {
	ResetTraceCache()
	k16 := NeedleKernel(16)
	k64 := NeedleKernel(64)
	t16 := (&Source{K: k16}).WarpTrace(0, 0)
	t64 := (&Source{K: k64}).WarpTrace(0, 0)
	if len(t16) == len(t64) && &t16[0] == &t64[0] {
		t.Fatal("needle BF=16 and BF=64 shared one cache entry")
	}

	full := freshSource(t, "needle").WarpTrace(0, 0)
	k, _ := ByName("needle")
	spilled := (&Source{K: k, RegsAvail: 18}).WarpTrace(0, 0)
	if len(full) == len(spilled) && &full[0] == &spilled[0] {
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
	traces := make([][]*isa.WarpInst, goroutines) // per-goroutine first-element pointers
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
					tr := s.WarpTrace(c, w)
					traces[g] = append(traces[g], &tr[0])
					out := s.WarpOutcomes(c, w, config.Unified, false)
					if len(out) != len(tr) {
						t.Errorf("goroutine %d: %d outcomes for %d instructions", g, len(out), len(tr))
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
			t.Errorf("goroutine %d saw different trace backing arrays than goroutine 0", g)
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
// Model's per-instruction evaluation, and every instruction's memoized
// footprint must equal the lines, sectors and distinct-address count
// the memory pipeline computes from the instruction itself.
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
		fps := src.WarpFootprints(0, 0)
		for i := range insts {
			got := fps.At(i)
			if !insts[i].Op.IsGlobal() {
				if len(got) != 0 {
					t.Fatalf("%s inst %d (%v): non-global instruction has footprint %v", k.Name, i, insts[i].Op, got)
				}
				continue
			}
			want := m.Footprint(&insts[i])
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
	prev := SetTraceCacheLimit(1) // flush on every charge
	defer SetTraceCacheLimit(prev)
	src := freshSource(t, "needle")
	first := src.WarpTrace(0, 0)
	second := src.WarpTrace(0, 0)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("rebuild after flush changed the trace")
	}
	SetTraceCacheLimit(prev)
	ResetTraceCache()
	if TraceCacheBytes() != 0 {
		t.Fatalf("TraceCacheBytes = %d after reset, want 0", TraceCacheBytes())
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

// TestTraceCacheChargesDistinctVectors: the bytes charged for a kernel's
// grid are its instructions plus each warp's address arena, the resident
// size of the packed traces: a slot per distinct irregular vector and
// one per isa.PairsPerSlot distinct affine vectors.
func TestTraceCacheChargesDistinctVectors(t *testing.T) {
	for _, name := range []string{"needle", "bfs"} {
		ResetTraceCache()
		src := freshSource(t, name)
		src.RegsAvail = 12 // add spill code
		ctas, warps := src.Grid()
		var want int64
		affineTotal := 0
		for c := 0; c < ctas; c++ {
			for w := 0; w < warps; w++ {
				insts := src.WarpTrace(c, w)
				irregular := make(map[isa.AddrVec]bool)
				affine := make(map[[2]uint32]bool)
				for i := range insts {
					if !insts[i].HasAddrs() {
						continue
					}
					if base, stride, vec := insts[i].AddrForm(); vec != nil {
						irregular[*vec] = true
					} else {
						affine[[2]uint32{base, stride}] = true
					}
				}
				slots := len(irregular) + (len(affine)+isa.PairsPerSlot-1)/isa.PairsPerSlot
				want += int64(len(insts))*int64(unsafe.Sizeof(isa.WarpInst{})) +
					int64(slots)*int64(unsafe.Sizeof(isa.AddrVec{}))
				affineTotal += len(affine)
			}
		}
		if got := TraceCacheBytes(); got != want {
			t.Errorf("%s: charged %d bytes, the grid's traces hold %d", name, got, want)
		}
		if affineTotal == 0 {
			t.Errorf("%s: no affine vectors; the test no longer covers pair slots", name)
		}
	}
	ResetTraceCache()
}
