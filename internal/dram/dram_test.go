package dram

import (
	"testing"
	"testing/quick"
)

func TestReadLatency(t *testing.T) {
	d := New(DefaultConfig())
	done := d.Read(0, 0, 128)
	// 128 bytes at 8 B/cycle = 16 transfer cycles + 400 latency.
	if done != 416 {
		t.Errorf("Read completion = %d, want 416", done)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	d := New(DefaultConfig())
	first := d.Read(0, 0, 128)
	second := d.Read(0, 0, 128)
	if second != first+16 {
		t.Errorf("second read = %d, want %d (bus serialized)", second, first+16)
	}
	if d.QueueingStall() != 16 {
		t.Errorf("QueueingStall() = %d, want 16", d.QueueingStall())
	}
}

func TestBusIdleGapNotCharged(t *testing.T) {
	d := New(DefaultConfig())
	d.Read(0, 0, 128)
	done := d.Read(1000, 0, 128) // bus long idle by cycle 1000
	if done != 1416 {
		t.Errorf("idle-bus read = %d, want 1416", done)
	}
	if d.QueueingStall() != 0 {
		t.Errorf("QueueingStall() = %d, want 0", d.QueueingStall())
	}
}

func TestWritesArePostedButConsumeBandwidth(t *testing.T) {
	d := New(DefaultConfig())
	d.Write(0, 0, 128) // occupies bus until 16
	done := d.Read(0, 0, 8)
	if done != 16+1+400 {
		t.Errorf("read after write = %d, want 417", done)
	}
}

func TestByteAccounting(t *testing.T) {
	d := New(DefaultConfig())
	d.Read(0, 0, 128)
	d.Read(0, 0, 128)
	d.Write(0, 0, 100)
	r, w := d.Accesses()
	if r != 2 || w != 1 {
		t.Errorf("accesses: r=%d w=%d", r, w)
	}
}

func TestMinimumOneTransferCycle(t *testing.T) {
	d := New(DefaultConfig())
	done := d.Read(0, 0, 1)
	if done != 401 {
		t.Errorf("1-byte read = %d, want 401", done)
	}
}

func TestDefaultsAppliedForZeroConfig(t *testing.T) {
	d := New(Config{})
	if done := d.Read(0, 0, 8); done != 401 {
		t.Errorf("zero-config read = %d, want defaults applied (401)", done)
	}
}

// TestCompletionMonotonic property-checks that completions never move
// backwards in time for monotonically issued requests.
func TestCompletionMonotonic(t *testing.T) {
	f := func(sizes []uint16) bool {
		d := New(DefaultConfig())
		now, last := int64(0), int64(0)
		for _, sz := range sizes {
			now += int64(sz % 100)
			done := d.Read(now, 0, int(sz%512)+1)
			if done < last || done < now+d.cfg.LatencyCycles {
				return false
			}
			last = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringNonEmpty(t *testing.T) {
	if New(DefaultConfig()).String() == "" {
		t.Error("String() empty")
	}
}

func TestOpenRowModel(t *testing.T) {
	d := New(Config{BytesPerCycle: 8, LatencyCycles: 400, RowBytes: 2048})
	first := d.Read(0, 100, 8) // row miss: full latency
	if first != 401 {
		t.Errorf("row miss completion = %d, want 401", first)
	}
	second := d.Read(1000, 200, 8) // same 2KB row: hit saves 100 cycles
	if second != 1000+1+300 {
		t.Errorf("row hit completion = %d, want 1301", second)
	}
	third := d.Read(2000, 4096, 8) // different row
	if third != 2000+1+400 {
		t.Errorf("row miss completion = %d, want 2401", third)
	}
	hits, misses := d.RowStats()
	if hits != 1 || misses != 2 {
		t.Errorf("row stats = %d/%d, want 1/2", hits, misses)
	}
}

func TestOpenRowDisabledByDefault(t *testing.T) {
	d := New(DefaultConfig())
	d.Read(0, 0, 8)
	d.Read(1000, 8, 8)
	if h, m := d.RowStats(); h != 0 || m != 0 {
		t.Errorf("flat-latency model should not track rows: %d/%d", h, m)
	}
}

func TestWritesMoveOpenRow(t *testing.T) {
	d := New(Config{BytesPerCycle: 8, LatencyCycles: 400, RowBytes: 2048})
	d.Read(0, 0, 8)       // opens row 0
	d.Write(100, 8192, 8) // write moves to row 4
	done := d.Read(1000, 0, 8)
	if done != 1000+1+400 {
		t.Errorf("read after row-moving write = %d, want full-latency 1401", done)
	}
}
