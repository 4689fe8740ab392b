package machine

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/sm"
)

// load reads and resolves a machine file.
func load(path string) (config.MemConfig, sm.Params, energy.Params, error) {
	d, err := Read(path)
	if err != nil {
		return config.MemConfig{}, sm.Params{}, energy.Params{}, err
	}
	return d.Resolve()
}

func TestDefaultResolvesToBaseline(t *testing.T) {
	cfg, p, e, err := Default().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if cfg != config.Baseline() {
		t.Errorf("default config = %v, want baseline", cfg)
	}
	if p.ALULatency != 8 || p.DRAM.LatencyCycles != 400 || p.ActiveWarps != 8 {
		t.Errorf("timing defaults wrong: %+v", p)
	}
	if e.SMDynamicPower != 1.9 || e.UnifiedWiringOverhead != 1.10 {
		t.Errorf("energy defaults wrong: %+v", e)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := Default()
	d.Design = "unified"
	d.RFKB, d.SharedKB, d.CacheKB = 128, 128, 128
	d.Timing.ALULatency = 12
	d.Energy.SMDynamicW = 2.5
	path := filepath.Join(t.TempDir(), "m.json")
	if err := Save(path, d); err != nil {
		t.Fatal(err)
	}
	cfg, p, e, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Design != config.Unified || cfg.RFBytes != 128<<10 {
		t.Errorf("config = %v", cfg)
	}
	if p.ALULatency != 12 {
		t.Errorf("ALULatency = %d", p.ALULatency)
	}
	if e.SMDynamicPower != 2.5 {
		t.Errorf("SMDynamicPower = %v", e.SMDynamicPower)
	}
}

func TestPartialFileTakesDefaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(path, []byte(`{"design":"partitioned","rf_kb":64,"shared_kb":32,"cache_kb":32}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, p, e, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RFBytes != 64<<10 {
		t.Errorf("RFBytes = %d", cfg.RFBytes)
	}
	if p.SFULatency != 20 || e.DRAMEnergyPerBit != 40e-12 {
		t.Error("unset fields should take the paper defaults")
	}
	if p.DRAM.RowBytes != 0 {
		t.Error("open-row model must stay off unless requested")
	}
}

func TestOpenRowViaJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "row.json")
	js := `{"design":"partitioned","rf_kb":256,"shared_kb":64,"cache_kb":64,
	        "timing":{"dram_row_bytes":2048,"dram_row_miss_cycles":120}}`
	if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	_, p, _, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.DRAM.RowBytes != 2048 || p.DRAM.RowMissPenalty != 120 {
		t.Errorf("row config not plumbed: %+v", p.DRAM)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, _, _, err := load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(path, []byte("{not json"), 0o644)
	if _, _, _, err := load(path); err == nil {
		t.Error("bad JSON accepted")
	}
	path2 := filepath.Join(t.TempDir(), "baddesign.json")
	os.WriteFile(path2, []byte(`{"design":"quantum","rf_kb":1}`), 0o644)
	if _, _, _, err := load(path2); err == nil {
		t.Error("unknown design accepted")
	}
	path3 := filepath.Join(t.TempDir(), "badcfg.json")
	os.WriteFile(path3, []byte(`{"design":"unified","rf_kb":-1,"shared_kb":0,"cache_kb":0}`), 0o644)
	if _, _, _, err := load(path3); err == nil {
		t.Error("negative capacity accepted")
	}
}
