package memsys

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
)

// missBurst issues n loads of distinct lines from line first, one per
// cycle from now, and returns their outcomes.
func missBurst(m *MemSys, first uint32, n int, now int64) []Access {
	var out []Access
	for i := 0; i < n; i++ {
		base := (first + uint32(i)) * config.CacheLineBytes
		_, accs := m.Load(ldg(func(l int) uint32 { return base + uint32(l)*4 }), now+int64(i), 0)
		out = append(out, accs...)
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
				t.Fatalf("%+v round %d: recycled accesses differ from a new pipeline's", cfg, round)
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

// TestRestoreSizesRetireBuffer: a new pipeline restored from a pending
// table larger than its own takes the snapshot's layout and a retire
// buffer to match, so its first retire does not allocate.
func TestRestoreSizesRetireBuffer(t *testing.T) {
	mem := &fixedMem{latency: 5000}
	parent, _ := newTestMemSys(mem, 0, false, 64<<10)
	missBurst(parent, 0, 200, 0)
	st := parent.Snapshot()
	if len(st.PendingKeys) <= minPendingSlots {
		t.Fatalf("snapshot pending table has %d slots, want more than %d", len(st.PendingKeys), minPendingSlots)
	}
	fork, _ := newTestMemSys(mem, 0, false, 64<<10)
	if err := fork.Restore(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fork.Snapshot(), st) {
		t.Fatal("restored pipeline's state differs from the snapshot")
	}
	// retire never allocates while its buffer has room for every entry
	// the table can hold. Half the fills have arrived by cycle 5100, so
	// the first retire keeps 99 survivors: more than a new table's
	// 32-entry buffer holds.
	if got, want := cap(fork.pending.live), len(fork.pending.keys)/2; got < want {
		t.Errorf("restored retire buffer holds %d entries, want %d", got, want)
	}
	fork.pending.retire(5100)
	if fork.pending.len() != 99 {
		t.Errorf("retire kept %d fills, want the 99 still in flight", fork.pending.len())
	}
}
