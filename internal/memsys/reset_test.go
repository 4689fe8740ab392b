package memsys

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
)

// missBurst issues n loads of distinct lines from line first, one per
// cycle from now, and returns their ready cycles.
func missBurst(m *MemSys, first uint32, n int, now int64) []int64 {
	var out []int64
	for i := 0; i < n; i++ {
		base := (first + uint32(i)) * config.CacheLineBytes
		out = append(out, m.Load(ldg(func(l int) uint32 { return base + uint32(l)*4 }), now+int64(i), 0))
	}
	return out
}

// TestResetMatchesNew: a pipeline Reset after a run that grew its
// cache and pending table behaves exactly like a new one, down to the
// pending table's size at every step, under another configuration and
// back under the first.
func TestResetMatchesNew(t *testing.T) {
	big := Config{CacheBytes: 128 << 10, CacheLatency: 20, DRAMLatency: 100}
	small := Config{CacheBytes: 16 << 10, CacheLatency: 30, DRAMLatency: 100, MaxMSHRs: 8}
	recycled := New(big, &fixedMem{latency: 5000}, &stats.Counters{})
	missBurst(recycled, 0, 600, 0)
	for _, cfg := range []Config{small, big} {
		var fc, rc stats.Counters
		fresh := New(cfg, &fixedMem{latency: 300}, &fc)
		recycled.Reset(cfg, &fixedMem{latency: 300}, &rc)
		for round := 0; round < 4; round++ {
			first, now := uint32(round*50), int64(round*400)
			if got, want := missBurst(recycled, first, 120, now), missBurst(fresh, first, 120, now); !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v round %d: recycled ready cycles differ from a new pipeline's", cfg, round)
			}
			if got, want := len(recycled.pending.keys), len(fresh.pending.keys); got != want {
				t.Fatalf("%+v round %d: recycled pending table has %d slots, a new one %d", cfg, round, got, want)
			}
		}
		if rc != fc {
			t.Errorf("%+v: recycled counters differ from a new pipeline's:\ngot  %+v\nwant %+v", cfg, rc, fc)
		}
	}
}

// TestRestoreSizesRetireBuffer: a new pipeline that copies a pending
// table larger than its own takes the table's layout and a retire
// buffer to match, so its first retire does not allocate; a zero
// pipeline's frozen copy takes the same state and no retire buffer.
func TestRestoreSizesRetireBuffer(t *testing.T) {
	mem := &fixedMem{latency: 5000}
	parent, _ := newTestMemSys(mem, 0, false, 64<<10)
	missBurst(parent, 0, 200, 0)
	if slots := len(parent.pending.keys); slots <= minPendingSlots {
		t.Fatalf("parent pending table has %d slots, want more than %d", slots, minPendingSlots)
	}
	var frozen MemSys
	frozen.CopyFrom(parent)
	if frozen.pending.live != nil {
		t.Errorf("a frozen copy holds a %d-entry retire buffer, want none", cap(frozen.pending.live))
	}
	fork, _ := newTestMemSys(mem, 0, false, 64<<10)
	fork.CopyFrom(&frozen)
	for _, m := range []*MemSys{&frozen, fork} {
		if !sameRunState(m, parent) {
			t.Fatal("copied pipeline's state differs from the parent's")
		}
	}
	// retire never allocates while its buffer has room for every entry
	// the table can hold. Half the fills have arrived by cycle 5100, so
	// the first retire keeps 99 survivors: more than a new table's
	// 32-entry buffer holds.
	if got, want := cap(fork.pending.live), len(fork.pending.keys)/2; got < want {
		t.Errorf("copied retire buffer holds %d entries, want %d", got, want)
	}
	fork.pending.retire(5100)
	if fork.pending.len() != 99 {
		t.Errorf("retire kept %d fills, want the 99 still in flight", fork.pending.len())
	}
	if !sameRunState(&frozen, parent) {
		t.Error("the fork's retire changed the frozen copy it was taken from")
	}
}

// sameRunState reports whether two pipelines hold the same run state:
// the pending table in the same layout, the clocks and the tag store.
func sameRunState(a, b *MemSys) bool {
	pa, pb := a.pending, b.pending
	return reflect.DeepEqual(pa.keys, pb.keys) && reflect.DeepEqual(pa.vals, pb.vals) && pa.n == pb.n &&
		a.tagFreeAt == b.tagFreeAt && a.mshrBlockedUntil == b.mshrBlockedUntil &&
		reflect.DeepEqual(a.l1, b.l1)
}
