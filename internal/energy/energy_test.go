package energy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/stats"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestBankEnergyTable4Exact verifies the published calibration points
// reproduce exactly (Table 4).
func TestBankEnergyTable4Exact(t *testing.T) {
	cases := []struct {
		bytes       int
		read, write float64
	}{
		{2 << 10, 3.9, 5.1},    // partitioned shared/cache bank
		{8 << 10, 9.8, 11.8},   // partitioned MRF bank
		{12 << 10, 12.1, 14.9}, // 384 KB unified bank
	}
	for _, c := range cases {
		r, w := BankEnergy(c.bytes)
		if !almost(r, c.read, 1e-9) || !almost(w, c.write, 1e-9) {
			t.Errorf("BankEnergy(%d) = %.3f/%.3f, want %.1f/%.1f", c.bytes, r, w, c.read, c.write)
		}
	}
}

func TestBankEnergyMonotonic(t *testing.T) {
	f := func(a, b uint16) bool {
		s1 := 256 + int(a)%(32<<10)
		s2 := 256 + int(b)%(32<<10)
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		r1, w1 := BankEnergy(s1)
		r2, w2 := BankEnergy(s2)
		return r1 <= r2+1e-9 && w1 <= w2+1e-9 && r1 > 0 && w1 > r1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBankEnergyZero(t *testing.T) {
	r, w := BankEnergy(0)
	if r != 0 || w != 0 {
		t.Error("zero bank should cost nothing")
	}
}

func TestUnifiedBankCostsMoreThanPartitioned(t *testing.T) {
	// 384 KB across 32 banks: 12 KB unified banks vs 8 KB MRF banks.
	rUni, _ := BankEnergy(12 << 10)
	rPart, _ := BankEnergy(8 << 10)
	if rUni <= rPart {
		t.Errorf("unified bank read %.2f should exceed partitioned %.2f", rUni, rPart)
	}
}

func baselineCounters() *stats.Counters {
	return &stats.Counters{
		Cycles:    1_000_000,
		WarpInsts: 800_000,
		MRFReads:  500_000, MRFWrites: 300_000,
		ORFReads: 400_000, ORFWrites: 200_000,
		LRFReads: 300_000, LRFWrites: 300_000,
		SharedReads: 100_000, SharedWrites: 50_000,
		CacheDataReads: 60_000, CacheDataWrites: 20_000,
		CacheProbes:   90_000,
		DRAMReadBytes: 50 << 20, DRAMWriteBytes: 10 << 20,
	}
}

func TestEvaluateBreakdownPositive(t *testing.T) {
	m := NewModel()
	b := m.Evaluate(config.Baseline(), baselineCounters(), -1)
	for name, v := range map[string]float64{
		"MRF": b.MRF, "ORF": b.ORF, "LRF": b.LRF, "Shared": b.Shared,
		"Cache": b.Cache, "Tags": b.Tags, "Leak": b.Leak, "DRAM": b.DRAM,
	} {
		if v <= 0 {
			t.Errorf("%s energy = %v, want positive", name, v)
		}
	}
	if b.Total() < b.AccessTotal() {
		t.Error("Total() below access energy")
	}
}

func TestCalibrationMakesBaselineDynamicMatch(t *testing.T) {
	m := NewModel()
	c := baselineCounters()
	cfg := config.Baseline()
	other := m.CalibrateOther(cfg, c)
	b := m.Evaluate(cfg, c, other)
	t_s := float64(c.Cycles) / m.P.Frequency
	wantDyn := m.P.SMDynamicPower * t_s
	if !almost(b.AccessTotal()+b.Other, wantDyn, wantDyn*1e-9) {
		t.Errorf("baseline dynamic = %v, want %v", b.AccessTotal()+b.Other, wantDyn)
	}
}

func TestDRAMEnergyExact(t *testing.T) {
	m := NewModel()
	c := &stats.Counters{Cycles: 1000, DRAMReadBytes: 1000}
	b := m.Evaluate(config.Baseline(), c, 0)
	want := 40e-12 * 8 * 1000
	if !almost(b.DRAM, want, want*1e-12) {
		t.Errorf("DRAM energy = %v, want %v", b.DRAM, want)
	}
}

func TestLeakageScalesWithCapacityAndTime(t *testing.T) {
	m := NewModel()
	c := &stats.Counters{Cycles: 1_000_000}
	small := config.MemConfig{Design: config.Unified, RFBytes: 64 << 10, SharedBytes: 32 << 10, CacheBytes: 32 << 10}
	big := config.MemConfig{Design: config.Unified, RFBytes: 256 << 10, SharedBytes: 64 << 10, CacheBytes: 64 << 10}
	bs := m.Evaluate(small, c, 0)
	bb := m.Evaluate(big, c, 0)
	if bs.Leak >= bb.Leak {
		t.Errorf("leakage should grow with capacity: %v vs %v", bs.Leak, bb.Leak)
	}
	// Twice the runtime, twice the leakage.
	c2 := &stats.Counters{Cycles: 2_000_000}
	bb2 := m.Evaluate(big, c2, 0)
	if !almost(bb2.Leak, 2*bb.Leak, bb.Leak*1e-9) {
		t.Errorf("leakage not linear in time: %v vs %v", bb2.Leak, bb.Leak)
	}
}

// TestUnifiedOverheadVisible replays identical counters under both designs:
// the unified design must charge more for shared/cache accesses (larger
// banks + wiring) — the Section 6.1 overhead.
func TestUnifiedOverheadVisible(t *testing.T) {
	m := NewModel()
	c := baselineCounters()
	part := m.Evaluate(config.Baseline(), c, 0)
	uni := config.Baseline()
	uni.Design = config.Unified
	uniB := m.Evaluate(uni, c, 0)
	if uniB.Cache <= part.Cache {
		t.Errorf("unified cache access energy %v should exceed partitioned %v", uniB.Cache, part.Cache)
	}
	if uniB.MRF <= part.MRF {
		t.Errorf("unified MRF access energy %v should exceed partitioned %v", uniB.MRF, part.MRF)
	}
}

func TestCalibrateOtherNeverNegative(t *testing.T) {
	m := NewModel()
	// Absurdly access-heavy counters against a tiny runtime.
	c := &stats.Counters{Cycles: 1, MRFReads: 1 << 40}
	if got := m.CalibrateOther(config.Baseline(), c); got < 0 {
		t.Errorf("CalibrateOther() = %v, want >= 0", got)
	}
}

// TestDerivedOverheadNearPaperAssumption checks the UnifiedWiringOverhead
// constant against a first-principles estimate. The paper models the
// unified design's extra wiring (the 4:1 cluster mux and a crossbar
// stretched by clusters that now hold all data storage) as a flat +10%
// without a physical design. Laying the 8 clusters out in a row as square
// tiles sized by their SRAM, and charging the Table 3 signalling energy
// (1.9 pJ/mm per 16-byte transfer) for an average traversal, derives an
// overhead within a few points of the constant the model uses.
func TestDerivedOverheadNearPaperAssumption(t *testing.T) {
	const (
		wirePJPerMM  = 1.9    // Table 3 signalling energy at 0.9 V, 32 nm
		sramMM2PerKB = 0.0055 // CACTI-class 32 nm SRAM density with periphery
		logicMM2     = 0.055  // non-SRAM area of one 4-lane cluster
		muxPJ        = 0.35   // the unified design's 4:1 bank mux
	)
	// accessWirePJ is the wire (and mux) energy of one shared-memory or
	// cache access when each cluster holds clusterBytes of SRAM: half the
	// crossbar span, plus, in the unified design, half a cluster pitch to
	// leave the bank array and the mux.
	accessWirePJ := func(clusterBytes int, unified bool) float64 {
		pitch := math.Sqrt(logicMM2 + float64(clusterBytes)/1024*sramMM2PerKB)
		wire := pitch * config.NumClusters / 2
		mux := 0.0
		if unified {
			wire += pitch / 2
			mux = muxPJ
		}
		return wire*wirePJPerMM + mux
	}
	// Partitioned clusters hold only their MRF share (two thirds of the
	// capacity); unified clusters hold all of it.
	total := config.BaselineTotalBytes
	part := accessWirePJ(total*2/3/config.NumClusters, false)
	uni := accessWirePJ(total/config.NumClusters, true)
	bankPJ, _ := BankEnergy(12 << 10)
	got := (uni - part) / (bankPJ + part)
	want := DefaultParams().UnifiedWiringOverhead - 1
	t.Logf("derived unified wiring overhead: %.1f%% (model uses %.0f%%)", 100*got, 100*want)
	if !almost(got, want, 0.03) {
		t.Errorf("derived overhead %.3f is not within 0.03 of the model's %.3f", got, want)
	}
}
