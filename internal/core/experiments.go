package core

import (
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/workloads"
)

// Figure8Row is one benchmark's chosen partitioning of the 384 KB unified
// memory (Figure 8).
type Figure8Row struct {
	Benchmark               string
	RFKB, SharedKB, CacheKB int
	Threads                 int
}

// Figure8 reports how the Section 4.5 algorithm divides 384 KB for the
// benefit set.
func (r *Runner) Figure8() ([]Figure8Row, error) {
	var out []Figure8Row
	for _, k := range workloads.BenefitSet() {
		cfg, err := config.AllocateMulti([]config.KernelRequirements{k.Requirements()}, config.BaselineTotalBytes, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, Figure8Row{
			Benchmark: k.Name,
			RFKB:      cfg.RFBytes >> 10,
			SharedKB:  cfg.SharedBytes >> 10,
			CacheKB:   cfg.CacheBytes >> 10,
			Threads:   cfg.MaxThreads,
		})
	}
	return out, nil
}

// Table4Row is one bank energy entry (Table 4).
type Table4Row struct {
	Structure string
	BankKB    int
	ReadPJ    float64
	WritePJ   float64
}

// Table4 reports the SRAM bank access energies of both designs.
func Table4() []Table4Row {
	entries := []struct {
		structure string
		bankBytes int
	}{
		{"256KB RF (partitioned)", 8 << 10},
		{"64KB shared (partitioned)", 2 << 10},
		{"64KB cache (partitioned)", 2 << 10},
		{"384KB unified", 12 << 10},
	}
	out := make([]Table4Row, 0, len(entries))
	for _, e := range entries {
		rd, wr := energy.BankEnergy(e.bankBytes)
		out = append(out, Table4Row{
			Structure: e.structure,
			BankKB:    e.bankBytes >> 10,
			ReadPJ:    rd,
			WritePJ:   wr,
		})
	}
	return out
}
