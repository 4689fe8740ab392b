package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/workloads"
)

// TestFigure8Shape checks the Section 4.5 allocations.
func TestFigure8Shape(t *testing.T) {
	r := NewRunner()
	rows, err := r.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]Figure8Row, len(rows))
	for _, row := range rows {
		byName[row.Benchmark] = row
		if total := row.RFKB + row.SharedKB + row.CacheKB; total > 384 {
			t.Errorf("%s: allocation %dK exceeds 384K", row.Benchmark, total)
		}
	}
	if byName["dgemm"].RFKB != 228 {
		t.Errorf("dgemm RF = %dK, want 228K (57 regs x 1024 threads)", byName["dgemm"].RFKB)
	}
	if byName["bfs"].RFKB != 36 {
		t.Errorf("bfs RF = %dK, want 36K", byName["bfs"].RFKB)
	}
	if byName["needle"].SharedKB < 200 {
		t.Errorf("needle shared = %dK, want the bulk of the 384K (paper: 264K)", byName["needle"].SharedKB)
	}
	if byName["bfs"].CacheKB < 300 {
		t.Errorf("bfs cache = %dK, want nearly everything (paper: 348K)", byName["bfs"].CacheKB)
	}
}

// TestMRFReduction checks the register-hierarchy enabler: the LRF/ORF
// absorb a large share of register-operand accesses. The paper reports a
// 60% MRF-access reduction on real compiled traces; our synthetic kernels
// carry fewer single-use dataflow temporaries than real code, so we check
// for a substantial (>25%) average reduction and no pathological kernel
// (see EXPERIMENTS.md for the recorded deviation).
func TestMRFReduction(t *testing.T) {
	r := NewRunner()
	sum, n := 0.0, 0
	for _, k := range workloads.All() {
		base, err := r.Baseline(k)
		if err != nil {
			t.Fatal(err)
		}
		frac := base.Counters.MRFAccessFraction()
		sum += frac
		n++
		if frac > 0.85 {
			t.Errorf("%s: MRF operand fraction %.2f, hierarchy should absorb more", k.Name, frac)
		}
	}
	if avg := sum / float64(n); avg > 0.75 {
		t.Errorf("average MRF operand fraction %.2f, want a substantial reduction", avg)
	}
}

// TestRunnerBasics exercises the runner's error paths and caching.
func TestRunnerBasics(t *testing.T) {
	r := NewRunner()
	if _, err := r.Run(RunSpec{}); err == nil {
		t.Error("Run with nil kernel should fail")
	}
	k, _ := workloads.ByName("vectoradd")
	tiny := config.MemConfig{Design: config.Partitioned, RFBytes: 1024}
	if _, err := r.Run(RunSpec{Kernel: k, Config: tiny}); err == nil {
		t.Error("Run with a config that fits no CTA should fail")
	}
	a, err := r.Baseline(k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Baseline(k)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Baseline should cache and return the same result")
	}
}

// TestDeterminism checks that two runners produce identical cycle counts.
func TestDeterminism(t *testing.T) {
	k, _ := workloads.ByName("bfs")
	a, err := NewRunner().Baseline(k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner().Baseline(k)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counters.Cycles != b.Counters.Cycles || a.Counters.DRAMBytes() != b.Counters.DRAMBytes() {
		t.Errorf("runs not deterministic: %d/%d vs %d/%d cycles/bytes",
			a.Counters.Cycles, a.Counters.DRAMBytes(), b.Counters.Cycles, b.Counters.DRAMBytes())
	}
}

// TestTable4Published checks the published bank energies appear verbatim.
func TestTable4Published(t *testing.T) {
	rows := Table4()
	if len(rows) != 4 {
		t.Fatalf("Table 4 has %d rows, want 4", len(rows))
	}
	if rows[0].ReadPJ != 9.8 || rows[0].WritePJ != 11.8 {
		t.Errorf("partitioned MRF bank = %.1f/%.1f, want 9.8/11.8", rows[0].ReadPJ, rows[0].WritePJ)
	}
	if rows[3].ReadPJ != 12.1 || rows[3].WritePJ != 14.9 {
		t.Errorf("unified bank = %.1f/%.1f, want 12.1/14.9", rows[3].ReadPJ, rows[3].WritePJ)
	}
}

// TestAllKernelsRunBaseline smoke-tests every benchmark end to end.
func TestAllKernelsRunBaseline(t *testing.T) {
	r := NewRunner()
	for _, k := range workloads.All() {
		res, err := r.Baseline(k)
		if err != nil {
			t.Errorf("%s: %v", k.Name, err)
			continue
		}
		c := res.Counters
		t.Logf("%-18s cycles=%8d insts=%7d ipc=%.3f thr=%4d hit=%.3f dram=%8d",
			k.Name, c.Cycles, c.WarpInsts, c.IPC(), res.Occupancy.Threads,
			c.CacheHitRate(), c.DRAMBytes())
		if c.Cycles <= 0 || c.WarpInsts <= 0 {
			t.Errorf("%s: empty run", k.Name)
		}
		if c.CTAsRetired != int64(k.GridCTAs) {
			t.Errorf("%s: retired %d CTAs, grid has %d", k.Name, c.CTAsRetired, k.GridCTAs)
		}
		if want := int64(k.GridCTAs * k.ThreadsPerCTA); c.ThreadsRun != want {
			t.Errorf("%s: ran %d threads, want %d", k.Name, c.ThreadsRun, want)
		}
	}
}

// TestIsolationConfigUnbounded checks the Section 3.3 isolation
// studies' unbounded shared memory: it never limits residency.
func TestIsolationConfigUnbounded(t *testing.T) {
	k, _ := workloads.ByName("needle")
	occCTAs := UnboundedShared(k) / k.SharedBytesPerCTA
	if occCTAs < config.MaxThreadsPerSM/k.ThreadsPerCTA {
		t.Errorf("unbounded shared memory still limits needle: %d CTAs", occCTAs)
	}
}
