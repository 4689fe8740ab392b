package dram

import (
	"fmt"

	"repro/internal/cache"
)

// System is the chip-level DRAM: several independent channels with
// addresses interleaved between them at a fixed granularity, shared by
// every SM on the chip (Figure 1a of the paper: 6 channels, 256 B/cycle
// aggregate).
//
// A System is not safe for concurrent use; the chip simulator serializes
// accesses in global time order.
type System struct {
	channels    []*DRAM
	interleave  uint32
	readBytes   int64
	writeBytes  int64
	outOfOrder  int64 // requests that arrived with now < a channel's last now
	lastIssueAt int64

	// Memory-side merge of concurrent same-line reads (the row-buffer /
	// L2-absorption effect): when several SMs fetch the same 128-byte
	// line while a fetch is in flight, they share its transfer instead
	// of serializing. Without this, lockstep kernels reading shared data
	// convoy artificially on the channels.
	inflight map[uint32]int64 // line -> data-ready cycle

	l2        *cache.Cache
	l2Latency int64
}

// SystemConfig parameterizes the chip DRAM.
type SystemConfig struct {
	// Channels is the channel count (6 in the paper).
	Channels int
	// BytesPerCyclePerChannel is each channel's bandwidth. The paper's
	// chip provides 256 B/cycle over 6 channels (~42.7 B/cycle each).
	BytesPerCyclePerChannel int
	// LatencyCycles is the access latency (400).
	LatencyCycles int64
	// InterleaveBytes is the address-interleave granularity between
	// channels (256 B, two cache lines).
	InterleaveBytes uint32
	// L2Bytes adds a shared chip-level L2 cache in front of the channels
	// (0 = none, the paper's memory system). The paper's target GPU
	// predates Fermi's L2; the option exists to quantify how much an L2
	// absorbs cross-SM sharing (see the chip validation experiment).
	L2Bytes int
	// L2LatencyCycles is the L2 hit latency (default 120).
	L2LatencyCycles int64
}

// DefaultSystemConfig returns a chip-level memory system scaled to nSMs
// streaming multiprocessors with exactly 8 B/cycle of aggregate bandwidth
// per SM — the share the paper's single-SM methodology assumes. The
// channel count is min(nSMs, 8) so the per-channel rate stays integral
// (the paper's 6 channels deliver a non-integral 42.67 B/cycle each; we
// keep the aggregate faithful instead).
func DefaultSystemConfig(nSMs int) SystemConfig {
	if nSMs < 1 {
		nSMs = 1
	}
	channels := nSMs
	if channels > 8 {
		channels = 8
	}
	for nSMs%channels != 0 {
		channels--
	}
	return SystemConfig{
		Channels:                channels,
		BytesPerCyclePerChannel: 8 * nSMs / channels,
		LatencyCycles:           400,
		InterleaveBytes:         256,
	}
}

// NewSystem builds the channel array.
func NewSystem(cfg SystemConfig) *System {
	if cfg.Channels < 1 {
		cfg.Channels = 1
	}
	if cfg.InterleaveBytes == 0 {
		cfg.InterleaveBytes = 256
	}
	s := &System{interleave: cfg.InterleaveBytes, inflight: make(map[uint32]int64)}
	if cfg.L2Bytes > 0 {
		s.l2 = cache.New(cfg.L2Bytes)
		s.l2Latency = cfg.L2LatencyCycles
		if s.l2Latency <= 0 {
			s.l2Latency = 120
		}
	}
	for i := 0; i < cfg.Channels; i++ {
		s.channels = append(s.channels, New(Config{
			BytesPerCycle: cfg.BytesPerCyclePerChannel,
			LatencyCycles: cfg.LatencyCycles,
		}))
	}
	return s
}

// channel routes an address to its channel. The granule index is hashed
// (xor-folded) before the modulo so that power-of-two strides do not
// alias onto a subset of the six channels — the same reason real memory
// controllers hash their channel-select bits.
func (s *System) channel(addr uint32) *DRAM {
	g := addr / s.interleave
	g ^= g >> 7
	g ^= g >> 13
	return s.channels[int(g)%len(s.channels)]
}

// Read schedules a read on the address's channel, merging with an
// in-flight fetch of the same 128-byte line if one exists.
func (s *System) Read(now int64, addr uint32, bytes int) int64 {
	if now < s.lastIssueAt {
		s.outOfOrder++
	} else {
		s.lastIssueAt = now
	}
	line := addr / 128
	if ready, ok := s.inflight[line]; ok {
		if ready > now {
			return ready
		}
		delete(s.inflight, line)
	}
	if s.l2 != nil && s.l2.Read(line) {
		return now + s.l2Latency
	}
	s.readBytes += int64(bytes)
	ready := s.channel(addr).Read(now, addr, bytes)
	if len(s.inflight) > 4096 {
		// Prune stale entries; the map only needs to cover in-flight
		// fetches (a few hundred cycles of traffic).
		for l, r := range s.inflight {
			if r <= now {
				delete(s.inflight, l)
			}
		}
	}
	s.inflight[line] = ready
	return ready
}

// Write posts a write on the address's channel.
func (s *System) Write(now int64, addr uint32, bytes int) {
	if now < s.lastIssueAt {
		s.outOfOrder++
	} else {
		s.lastIssueAt = now
	}
	s.writeBytes += int64(bytes)
	s.channel(addr).Write(now, addr, bytes)
}

// ReadBytes returns cumulative bytes read across channels.
func (s *System) ReadBytes() int64 { return s.readBytes }

// WriteBytes returns cumulative bytes written across channels.
func (s *System) WriteBytes() int64 { return s.writeBytes }

// OutOfOrder returns how many requests arrived below the high-water
// timestamp — a diagnostic for the chip simulator's global-time ordering
// (small values mean the conservative interleave is holding).
func (s *System) OutOfOrder() int64 { return s.outOfOrder }

// String summarizes the system.
func (s *System) String() string {
	return fmt.Sprintf("dram system: %d channels, %dB interleave, r=%dB w=%dB",
		len(s.channels), s.interleave, s.readBytes, s.writeBytes)
}
