package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/kgen"
	"repro/internal/workloads"
)

// buildTrace makes a small deterministic trace.
func buildTrace() *Trace {
	src := &workloads.Source{K: mustKernel("vectoradd"), Seed: 3}
	t := Record(limitGrid{src, 3})
	return t
}

func mustKernel(name string) *workloads.Kernel {
	k, err := workloads.ByName(name)
	if err != nil {
		panic(err)
	}
	return k
}

// limitGrid caps the CTA count of a source for fast tests.
type limitGrid struct {
	src  Source
	ctas int
}

func (l limitGrid) Grid() (int, int) {
	_, w := l.src.Grid()
	return l.ctas, w
}
func (l limitGrid) WarpTrace(c, w int) []isa.WarpInst { return l.src.WarpTrace(c, w) }

func TestRoundTrip(t *testing.T) {
	orig := buildTrace()
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.CTAs != orig.CTAs || got.WarpsPerCTA != orig.WarpsPerCTA {
		t.Fatalf("grid mismatch: %d/%d vs %d/%d", got.CTAs, got.WarpsPerCTA, orig.CTAs, orig.WarpsPerCTA)
	}
	if !reflect.DeepEqual(got.Warps, orig.Warps) {
		t.Fatal("instruction streams differ after round trip")
	}
}

func TestRoundTripRandomInstructions(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 9))
		warp := make([]isa.WarpInst, int(n%40)+1)
		for i := range warp {
			wi := &warp[i]
			wi.Op = isa.Op(rng.Uint32N(10))
			wi.Mask = rng.Uint32()
			if wi.Mask == 0 {
				wi.Mask = 1
			}
			wi.Dst = isa.Operand{Reg: uint8(rng.Uint32N(64)), Space: isa.RegSpace(rng.Uint32N(4))}
			for s := range wi.Srcs {
				wi.Srcs[s] = isa.Operand{Reg: uint8(rng.Uint32N(64)), Space: isa.RegSpace(rng.Uint32N(4))}
			}
			wi.DstMRFWrite = rng.Uint32N(2) == 0
			wi.Spill = rng.Uint32N(2) == 0
			if rng.Uint32N(2) == 0 {
				var av isa.AddrVec
				for l := range av {
					av[l] = rng.Uint32()
				}
				wi.SetAddrs(&av)
			}
		}
		// Read only accepts warps that end in EXIT.
		warp[len(warp)-1].Op = isa.OpEXIT
		orig := &Trace{CTAs: 1, WarpsPerCTA: 1, Warps: [][]isa.WarpInst{warp}}
		var buf bytes.Buffer
		if err := Write(&buf, orig); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Warps, orig.Warps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not a trace at all")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(magic[:])); err == nil {
		t.Error("truncated header accepted")
	}
	// Corrupt grid dimensions.
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := Read(&buf); err == nil {
		t.Error("implausible grid accepted")
	}
}

// unexecutableWarps are one-warp grids the SM cannot execute, each with
// the phrase Read's error must mention, plus one valid warp (wantErr "")
// built from the same instructions.
func unexecutableWarps() []struct {
	name    string
	warp    []isa.WarpInst
	wantErr string
} {
	exit := isa.WarpInst{Op: isa.OpEXIT, Mask: isa.FullMask,
		Dst: isa.Operand{Reg: isa.NoReg}, Srcs: [3]isa.Operand{{Reg: isa.NoReg}, {Reg: isa.NoReg}, {Reg: isa.NoReg}}}
	alu := func(dst, src uint8) isa.WarpInst {
		wi := exit
		wi.Op = isa.OpALU
		wi.Dst = isa.Operand{Reg: dst, Space: isa.SpaceMRF}
		wi.Srcs[0] = isa.Operand{Reg: src, Space: isa.SpaceMRF}
		return wi
	}
	return []struct {
		name    string
		warp    []isa.WarpInst
		wantErr string
	}{
		{"no trailing EXIT", []isa.WarpInst{alu(1, 0)}, "not EXIT"},
		{"empty warp", nil, "empty"},
		{"destination register out of range", []isa.WarpInst{alu(200, 0), exit}, "register 200"},
		{"source register out of range", []isa.WarpInst{alu(1, isa.MaxRegs), exit}, "register 64"},
		{"valid", []isa.WarpInst{alu(isa.MaxRegs-1, 0), exit}, ""},
	}
}

// writeOneWarp serializes a 1x1 grid holding warp.
func writeOneWarp(t testing.TB, warp []isa.WarpInst) []byte {
	var buf bytes.Buffer
	if err := Write(&buf, &Trace{CTAs: 1, WarpsPerCTA: 1, Warps: [][]isa.WarpInst{warp}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadRejectsUnexecutableWarps pins Read's warp validation: a warp
// the SM cannot execute — one without a trailing EXIT, or one naming a
// register outside the architectural file — is a descriptive error, not
// a trace that panics the simulator on replay.
func TestReadRejectsUnexecutableWarps(t *testing.T) {
	for _, tc := range unexecutableWarps() {
		_, err := Read(bytes.NewReader(writeOneWarp(t, tc.warp)))
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: warp rejected: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: Read error = %v, want one mentioning %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestReadAllocationBoundedByInput feeds Read headers whose counts
// promise far more data than follows. Read must fail on the missing
// data without first reserving memory for what the counts claim.
func TestReadAllocationBoundedByInput(t *testing.T) {
	le := binary.LittleEndian
	for _, tc := range []struct {
		name string
		file []byte
	}{
		// A 1x1 grid whose one warp claims maxInstsPerWarp instructions.
		{"warp length", le.AppendUint32(le.AppendUint32(le.AppendUint32(magic[:], 1), 1), maxInstsPerWarp)},
		// A grid of maxWarps warps with no warp data at all.
		{"grid size", le.AppendUint32(le.AppendUint32(magic[:], 1<<10), 1<<10)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(tc.file))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: %d-byte file accepted", tc.name, len(tc.file))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: reading a %d-byte file allocated %d bytes, want < 1 MB", tc.name, len(tc.file), got)
		}
	}
}

func TestTruncatedFile(t *testing.T) {
	orig := buildTrace()
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	if _, err := Read(bytes.NewReader(cut)); err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestRecordMatchesSource(t *testing.T) {
	src := &workloads.Source{K: mustKernel("bfs"), Seed: 3}
	tr := Record(limitGrid{src, 2})
	if got := tr.WarpTrace(1, 3); !reflect.DeepEqual(got, src.WarpTrace(1, 3)) {
		t.Error("recorded warp differs from source")
	}
	if tr.Instructions() == 0 {
		t.Error("empty recording")
	}
}

// TestRoundTripCachedTraces round-trips memoized traces (the workloads
// trace cache shares one program and operand table per warp across all
// readers) for several kernels and seeds: the serialized form must be
// lossless, and writing must neither rebuild nor perturb the cached
// tables other readers hold.
func TestRoundTripCachedTraces(t *testing.T) {
	for _, name := range []string{"needle", "bfs", "dgemm"} {
		for _, seed := range []uint64{0, 3, 12345} {
			src := &workloads.Source{K: mustKernel(name), Seed: seed}
			cached := src.WarpCode(1, 0)
			orig := Record(limitGrid{src, 2})
			var buf bytes.Buffer
			if err := Write(&buf, orig); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			got, err := Read(&buf)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if !reflect.DeepEqual(got.Warps, orig.Warps) {
				t.Fatalf("%s seed %d: instruction streams differ after round trip", name, seed)
			}
			// The cache must still hand out the same untouched tables.
			if again := src.WarpCode(1, 0); again != cached {
				t.Fatalf("%s seed %d: cache rebuilt a trace during serialization", name, seed)
			}
			if !reflect.DeepEqual(cached.AppendFlat(nil), got.Warps[1*got.WarpsPerCTA]) {
				t.Fatalf("%s seed %d: cached trace mutated by serialization", name, seed)
			}
		}
	}
}

func TestAnalyzeCounts(t *testing.T) {
	b := kgen.NewBuilder(kgen.Config{})
	b.ALU(0)
	b.ALU(1, 0)
	b.LDG(2, 1, kgen.Coalesced(0, 4))   // line 0
	b.LDG(3, 1, kgen.Coalesced(128, 4)) // line 1
	b.LDG(4, 1, kgen.Coalesced(0, 4))   // line 0 again: reuse distance 1
	b.STS(4, 0, kgen.Coalesced(64, 4))  // shared footprint 64..191
	warp := b.Finish()
	tr := &Trace{CTAs: 1, WarpsPerCTA: 1, Warps: [][]isa.WarpInst{warp}}
	p := Analyze(tr)
	if p.Instructions != int64(len(warp)) {
		t.Errorf("Instructions = %d, want %d", p.Instructions, len(warp))
	}
	if p.OpCounts[isa.OpLDG] != 3 || p.OpCounts[isa.OpSTS] != 1 {
		t.Errorf("op mix wrong: %v", p.OpCounts)
	}
	if p.GlobalFootprintLines != 2 {
		t.Errorf("footprint = %d lines, want 2", p.GlobalFootprintLines)
	}
	if p.GlobalLineAccesses != 3 {
		t.Errorf("line accesses = %d, want 3", p.GlobalLineAccesses)
	}
	if p.ReuseHistogram[0] != 1 {
		t.Errorf("one short-distance reuse expected: %v", p.ReuseHistogram)
	}
	if p.MaxSharedAddr != 64+31*4+4 {
		t.Errorf("MaxSharedAddr = %d", p.MaxSharedAddr)
	}
	if p.RegistersUsed != 5 {
		t.Errorf("RegistersUsed = %d, want 5", p.RegistersUsed)
	}
	if p.AvgLinesPerAccess != 1 {
		t.Errorf("AvgLinesPerAccess = %v, want 1 (fully coalesced)", p.AvgLinesPerAccess)
	}
}

func TestAnalyzeReuseDistances(t *testing.T) {
	// Touch 600 distinct lines then re-touch line 0: the reuse distance
	// (~600 distinct lines) exceeds the 512-line bucket but fits 2048.
	b := kgen.NewBuilder(kgen.Config{})
	b.ALU(0)
	for i := 0; i < 600; i++ {
		b.LDG(1, 0, kgen.Broadcast(uint32(i)*128))
	}
	b.LDG(1, 0, kgen.Broadcast(0))
	tr := &Trace{CTAs: 1, WarpsPerCTA: 1, Warps: [][]isa.WarpInst{b.Finish()}}
	p := Analyze(tr)
	if p.ReuseHistogram[1] != 1 {
		t.Errorf("reuse histogram = %v, want one entry in the 512..2048 bucket", p.ReuseHistogram)
	}
	if p.GlobalFootprintLines != 600 {
		t.Errorf("footprint = %d, want 600", p.GlobalFootprintLines)
	}
}

func TestProfileDerivedMetrics(t *testing.T) {
	p := &Profile{
		MRFReads: 2, MRFWrites: 2, ORFReads: 2, LRFReads: 2, LRFWrites: 2,
		GlobalFootprintLines: 4, GlobalLineAccesses: 12,
	}
	if got := p.MRFOperandFraction(); got != 0.4 {
		t.Errorf("MRFOperandFraction = %v", got)
	}
	if got := p.ReuseFactor(); got != 3 {
		t.Errorf("ReuseFactor = %v", got)
	}
}

func TestTopOpsSorted(t *testing.T) {
	p := &Profile{OpCounts: map[isa.Op]int64{isa.OpALU: 10, isa.OpLDG: 20, isa.OpSTS: 5}}
	ops := p.TopOps()
	if len(ops) != 3 || ops[0] != isa.OpLDG || ops[2] != isa.OpSTS {
		t.Errorf("TopOps = %v", ops)
	}
}

func TestFenwick(t *testing.T) {
	f := newFenwick(8)
	f.add(3, 5)
	f.add(7, 2)
	if f.sum(2) != 0 || f.sum(3) != 5 || f.sum(8) != 7 {
		t.Errorf("fenwick sums wrong: %d %d %d", f.sum(2), f.sum(3), f.sum(8))
	}
	f.add(3, -5)
	if f.sum(8) != 2 {
		t.Errorf("after removal sum = %d", f.sum(8))
	}
}

// TestCorruptionSafety flips bytes in a valid trace file and checks that
// Read either errors or returns a structurally valid trace — it must
// never panic or hang on corrupt input.
func TestCorruptionSafety(t *testing.T) {
	orig := buildTrace()
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 200; trial++ {
		corrupted := append([]byte(nil), clean...)
		for flips := 0; flips < 1+trial%4; flips++ {
			i := rng.IntN(len(corrupted))
			corrupted[i] ^= byte(1 << rng.UintN(8))
		}
		tr, err := Read(bytes.NewReader(corrupted))
		if err != nil {
			continue
		}
		// If it parsed, it must be self-consistent.
		if len(tr.Warps) != tr.CTAs*tr.WarpsPerCTA {
			t.Fatalf("trial %d: inconsistent parsed trace", trial)
		}
	}
}

// FuzzRead checks that Read never panics on arbitrary input, and that
// any trace it accepts survives a Write→Read round trip unchanged.
func FuzzRead(f *testing.F) {
	// One real warp keeps the seed small enough to mutate quickly.
	f.Add(writeOneWarp(f, buildTrace().Warps[0]))
	for _, tc := range unexecutableWarps() {
		f.Add(writeOneWarp(f, tc.warp))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, tr); err != nil {
			t.Fatalf("Write of an accepted trace: %v", err)
		}
		again, err := Read(&out)
		if err != nil {
			t.Fatalf("re-reading a written trace: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatal("trace changed across a Write/Read round trip")
		}
	})
}
