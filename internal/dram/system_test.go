package dram

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultSystemConfigPreservesPerSMShare(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 6, 8, 16, 32} {
		cfg := DefaultSystemConfig(n)
		if got := cfg.Channels * cfg.BytesPerCyclePerChannel; got != 8*n {
			t.Errorf("nSMs=%d: aggregate bandwidth %d, want %d", n, got, 8*n)
		}
		if cfg.Channels < 1 || cfg.Channels > 8 {
			t.Errorf("nSMs=%d: %d channels", n, cfg.Channels)
		}
	}
	if cfg := DefaultSystemConfig(0); cfg.Channels*cfg.BytesPerCyclePerChannel != 8 {
		t.Error("zero SMs should clamp to one")
	}
}

func TestSystemInFlightMerge(t *testing.T) {
	s := NewSystem(SystemConfig{Channels: 2, BytesPerCyclePerChannel: 8, LatencyCycles: 400})
	first := s.Read(0, 64, 32)
	// Another reader of the same 128-byte line while the fetch is in
	// flight shares its completion; no extra bytes move.
	second := s.Read(5, 0, 32)
	if second != first {
		t.Errorf("merged read completes at %d, want %d", second, first)
	}
	if s.ReadBytes() != 32 {
		t.Errorf("ReadBytes() = %d, want 32 (one fetch)", s.ReadBytes())
	}
	// After the fetch lands, a new read refetches.
	third := s.Read(first+10, 0, 32)
	if third <= first {
		t.Error("post-completion read should schedule a fresh fetch")
	}
	if s.ReadBytes() != 64 {
		t.Errorf("ReadBytes() = %d, want 64", s.ReadBytes())
	}
}

func TestSystemL2(t *testing.T) {
	s := NewSystem(SystemConfig{Channels: 2, BytesPerCyclePerChannel: 8, LatencyCycles: 400, L2Bytes: 64 << 10})
	miss := s.Read(0, 0, 32)
	if miss < 400 {
		t.Errorf("L2 miss too fast: %d", miss)
	}
	// Wait for the in-flight entry to expire so the L2 path is probed.
	hit := s.Read(miss+1, 0, 32)
	if hit != miss+1+120 {
		t.Errorf("L2 hit completion = %d, want %d (120-cycle default)", hit, miss+1+120)
	}
	if s.ReadBytes() != 32 {
		t.Errorf("ReadBytes() = %d, want 32 (hit avoids DRAM)", s.ReadBytes())
	}
}

func TestSystemWriteRouting(t *testing.T) {
	s := NewSystem(SystemConfig{Channels: 4, BytesPerCyclePerChannel: 8, LatencyCycles: 100})
	s.Write(0, 0, 64)
	s.Write(0, 512, 64)
	if s.WriteBytes() != 128 {
		t.Errorf("WriteBytes() = %d", s.WriteBytes())
	}
	if !strings.Contains(s.String(), "channels") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestSystemOutOfOrderDiagnostic(t *testing.T) {
	s := NewSystem(SystemConfig{Channels: 1, BytesPerCyclePerChannel: 8, LatencyCycles: 100})
	s.Read(100, 0, 8)
	s.Read(50, 4096, 8) // goes back in time
	if s.OutOfOrder() != 1 {
		t.Errorf("OutOfOrder() = %d, want 1", s.OutOfOrder())
	}
}

// TestChannelHashCoversAllChannels property-checks that strided address
// patterns reach every channel (the hash defeats power-of-two aliasing).
func TestChannelHashCoversAllChannels(t *testing.T) {
	f := func(strideRaw uint16) bool {
		stride := (uint32(strideRaw)%64 + 1) * 256
		s := NewSystem(SystemConfig{Channels: 6, BytesPerCyclePerChannel: 8, LatencyCycles: 10})
		for i := uint32(0); i < 600; i++ {
			s.Read(int64(i)*1000, i*stride, 8)
		}
		// With hashing, a long strided sweep must touch >= 4 of 6 channels.
		touched := 0
		for _, ch := range s.channels {
			if reads, _ := ch.Accesses(); reads > 0 {
				touched++
			}
		}
		return touched >= 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSystemZeroConfigDefaults(t *testing.T) {
	s := NewSystem(SystemConfig{})
	if len(s.channels) != 1 {
		t.Errorf("%d channels, want 1", len(s.channels))
	}
	if done := s.Read(0, 0, 8); done <= 0 {
		t.Error("zero-config system should still serve reads")
	}
}
