package workloads

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
)

func TestRegistryComplete(t *testing.T) {
	// The paper's Table 1 characterizes 26 workloads.
	if got := len(All()); got != 26 {
		names := make([]string, 0, got)
		for _, k := range All() {
			names = append(names, k.Name)
		}
		t.Fatalf("registry has %d kernels, want 26: %v", got, names)
	}
}

func TestTable1Expectations(t *testing.T) {
	// Spot-check the published per-thread requirements (Table 1).
	expect := map[string]struct {
		regs    int
		shmPerT float64
	}{
		"needle":    {18, 264.1},
		"sto":       {33, 127},
		"lu":        {20, 96},
		"mummer":    {21, 0},
		"bfs":       {9, 0},
		"vectoradd": {9, 0},
		"dgemm":     {57, 66.5},
		"pcr":       {33, 20},
		"ray":       {42, 0},
		"hwt":       {35, 23},
		"nn":        {13, 0},
		"aes":       {28, 24},
	}
	for name, want := range expect {
		k, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if k.RegsNeeded != want.regs {
			t.Errorf("%s: RegsNeeded = %d, want %d", name, k.RegsNeeded, want.regs)
		}
		got := k.SharedBytesPerThread()
		tol := want.shmPerT * 0.15
		if tol < 1 {
			tol = 1
		}
		if got < want.shmPerT-tol || got > want.shmPerT+tol {
			t.Errorf("%s: shared B/thread = %.1f, want ~%.1f", name, got, want.shmPerT)
		}
	}
	// dgemm's full-occupancy RF demand is the Table 1 maximum: 228 KB.
	dg, _ := ByName("dgemm")
	if rf := dg.RegsNeeded * 4 * config.MaxThreadsPerSM; rf != 228<<10 {
		t.Errorf("dgemm full-occupancy RF = %d, want 228K", rf)
	}
}

// traceFor builds one warp trace with an optional register budget.
func traceFor(k *Kernel, cta, warp, regsAvail int) []isa.WarpInst {
	src := &Source{K: k, RegsAvail: regsAvail, Seed: 7}
	return src.WarpTrace(cta, warp)
}

func TestRegisterDemandMatchesDeclaration(t *testing.T) {
	for _, k := range All() {
		used := make(map[uint8]bool)
		maxReg := -1
		for w := 0; w < k.WarpsPerCTA(); w++ {
			for _, wi := range traceFor(k, 0, w, 0) {
				regs := []isa.Operand{wi.Dst, wi.Srcs[0], wi.Srcs[1], wi.Srcs[2]}
				for _, o := range regs {
					if o.Reg != isa.NoReg {
						used[o.Reg] = true
						if int(o.Reg) > maxReg {
							maxReg = int(o.Reg)
						}
					}
				}
			}
		}
		if len(used) != k.RegsNeeded || maxReg+1 != k.RegsNeeded {
			t.Errorf("%s: uses %d distinct regs (max r%d), declares %d",
				k.Name, len(used), maxReg, k.RegsNeeded)
		}
	}
}

func TestSharedAddressesWithinAllocation(t *testing.T) {
	for _, k := range All() {
		for w := 0; w < k.WarpsPerCTA(); w++ {
			for i, wi := range traceFor(k, 1, w, 0) {
				if !wi.Op.IsShared() {
					continue
				}
				if k.SharedBytesPerCTA == 0 {
					t.Errorf("%s: shared access but no shared allocation", k.Name)
					break
				}
				for l := 0; l < isa.WarpSize; l++ {
					if wi.Mask&(1<<uint(l)) == 0 {
						continue
					}
					if int(wi.Addr(l))+4 > k.SharedBytesPerCTA {
						t.Errorf("%s warp %d inst %d: shared addr %d beyond CTA allocation %d",
							k.Name, w, i, wi.Addr(l), k.SharedBytesPerCTA)
						break
					}
				}
			}
		}
	}
}

func TestKernelsWithSharedMemoryUseIt(t *testing.T) {
	for _, k := range All() {
		if k.SharedBytesPerCTA == 0 {
			continue
		}
		found := false
		for w := 0; w < k.WarpsPerCTA() && !found; w++ {
			for _, wi := range traceFor(k, 0, w, 0) {
				if wi.Op.IsShared() {
					found = true
					break
				}
			}
		}
		if !found {
			t.Errorf("%s declares %d B of shared memory but never accesses it",
				k.Name, k.SharedBytesPerCTA)
		}
	}
}

func TestBarriersBalancedAcrossCTA(t *testing.T) {
	// Every warp of a CTA must execute the same number of barriers, or
	// the CTA deadlocks.
	for _, k := range All() {
		count := -1
		for w := 0; w < k.WarpsPerCTA(); w++ {
			bars := 0
			for _, wi := range traceFor(k, 0, w, 0) {
				if wi.Op == isa.OpBAR {
					bars++
				}
			}
			if count < 0 {
				count = bars
			} else if bars != count {
				t.Errorf("%s: warp %d has %d barriers, warp 0 has %d", k.Name, w, bars, count)
			}
		}
	}
}

func TestTracesDeterministic(t *testing.T) {
	for _, k := range All() {
		a := traceFor(k, 3, 0, 0)
		b := traceFor(k, 3, 0, 0)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: traces not deterministic", k.Name)
		}
	}
}

func TestSpillBudgetInflatesDynamicInstructions(t *testing.T) {
	// The register-limited group must show a visible dynamic-instruction
	// increase at 18 registers (Table 1 columns 3-7).
	for _, name := range []string{"dgemm", "pcr", "bicubic"} {
		k, _ := ByName(name)
		full := len(traceFor(k, 0, 0, 0))
		squeezed := len(traceFor(k, 0, 0, 18))
		ratio := float64(squeezed) / float64(full)
		if ratio < 1.05 {
			t.Errorf("%s: dyn-inst ratio at 18 regs = %.3f, want noticeable spill overhead", name, ratio)
		}
	}
	// needle avoids spills even at 18 registers (its demand is 18).
	k, _ := ByName("needle")
	if full, squeezed := len(traceFor(k, 0, 0, 0)), len(traceFor(k, 0, 0, 18)); squeezed != full {
		t.Errorf("needle: spills at its declared demand (full=%d squeezed=%d)", full, squeezed)
	}
}

func TestBenefitSetsPartitionRegistry(t *testing.T) {
	benefit := BenefitSet()
	noBenefit := NoBenefitSet()
	if len(benefit) != 8 {
		t.Errorf("BenefitSet has %d kernels, want 8", len(benefit))
	}
	if len(benefit)+len(noBenefit) != len(All()) {
		t.Errorf("benefit (%d) + no-benefit (%d) != all (%d)",
			len(benefit), len(noBenefit), len(All()))
	}
	seen := make(map[string]bool)
	for _, k := range append(benefit, noBenefit...) {
		if seen[k.Name] {
			t.Errorf("%s appears twice", k.Name)
		}
		seen[k.Name] = true
	}
}

func TestCategoriesCoverRegistry(t *testing.T) {
	total := 0
	for _, c := range []Category{SharedLimited, CacheLimited, RegisterLimited, Balanced} {
		ks := Categories(c)
		total += len(ks)
		for _, k := range ks {
			if k.Category != c {
				t.Errorf("%s filed under %v", k.Name, c)
			}
		}
	}
	if total != len(All()) {
		t.Errorf("categories cover %d kernels, registry has %d", total, len(All()))
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("no-such-kernel"); err == nil {
		t.Error("ByName should fail for unknown names")
	}
}

func TestNeedleBlockingFactors(t *testing.T) {
	// Figure 11: shared memory per CTA grows quadratically with BF while
	// CTA threads grow linearly.
	k16, k32, k64 := NeedleKernel(16), NeedleKernel(32), NeedleKernel(64)
	if k16.SharedBytesPerCTA >= k32.SharedBytesPerCTA || k32.SharedBytesPerCTA >= k64.SharedBytesPerCTA {
		t.Error("needle shared memory should grow with BF")
	}
	r32 := float64(k32.SharedBytesPerCTA) / float64(k16.SharedBytesPerCTA)
	if r32 < 3 || r32 > 4.2 {
		t.Errorf("BF 16->32 shared growth = %.2f, want ~quadratic (x3.5)", r32)
	}
	if k64.ThreadsPerCTA != 64 || k32.ThreadsPerCTA != 32 {
		t.Errorf("CTA sizes: bf64=%d bf32=%d", k64.ThreadsPerCTA, k32.ThreadsPerCTA)
	}
	// Full-occupancy shared demand at BF=64 is in the several-hundred-KB
	// range the paper's Figure 11 x-axis shows.
	full := k64.SharedBytesPerCTA * (1024 / k64.ThreadsPerCTA)
	if full < 400<<10 || full > 600<<10 {
		t.Errorf("BF=64 full-occupancy shared = %d KB, want ~520 KB", full>>10)
	}
}

func TestGlobalAddressesAvoidSpillRegion(t *testing.T) {
	for _, k := range All() {
		for _, wi := range traceFor(k, 2, 0, 0) {
			if !wi.Op.IsGlobal() || !wi.HasAddrs() || wi.Spill {
				continue
			}
			for l := 0; l < isa.WarpSize; l++ {
				if wi.Addr(l) >= SpillRegionBase {
					t.Errorf("%s: data address %#x inside the spill region", k.Name, wi.Addr(l))
					break
				}
			}
		}
	}
}
