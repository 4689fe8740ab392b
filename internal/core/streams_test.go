package core

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/occupancy"
	"repro/internal/probe"
	"repro/internal/sm"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// additiveCounters lists every additive stats.Counters field: the
// categories whose per-stream values must sum exactly to the joint
// run's aggregate. Cycles and the residency high-water marks are
// deliberately absent (a stream's Cycles is its own finish time, and
// residency is shared).
var additiveCounters = []struct {
	name string
	get  func(*stats.Counters) int64
}{
	{"WarpInsts", func(c *stats.Counters) int64 { return c.WarpInsts }},
	{"SpillInsts", func(c *stats.Counters) int64 { return c.SpillInsts }},
	{"ThreadInsts", func(c *stats.Counters) int64 { return c.ThreadInsts }},
	{"ConflictCycles", func(c *stats.Counters) int64 { return c.ConflictCycles }},
	{"ArbitrationConflicts", func(c *stats.Counters) int64 { return c.ArbitrationConflicts }},
	{"MRFReads", func(c *stats.Counters) int64 { return c.MRFReads }},
	{"MRFWrites", func(c *stats.Counters) int64 { return c.MRFWrites }},
	{"ORFReads", func(c *stats.Counters) int64 { return c.ORFReads }},
	{"ORFWrites", func(c *stats.Counters) int64 { return c.ORFWrites }},
	{"LRFReads", func(c *stats.Counters) int64 { return c.LRFReads }},
	{"LRFWrites", func(c *stats.Counters) int64 { return c.LRFWrites }},
	{"SharedReads", func(c *stats.Counters) int64 { return c.SharedReads }},
	{"SharedWrites", func(c *stats.Counters) int64 { return c.SharedWrites }},
	{"CacheProbes", func(c *stats.Counters) int64 { return c.CacheProbes }},
	{"CacheHits", func(c *stats.Counters) int64 { return c.CacheHits }},
	{"CacheMisses", func(c *stats.Counters) int64 { return c.CacheMisses }},
	{"CacheDataReads", func(c *stats.Counters) int64 { return c.CacheDataReads }},
	{"CacheDataWrites", func(c *stats.Counters) int64 { return c.CacheDataWrites }},
	{"DRAMReadBytes", func(c *stats.Counters) int64 { return c.DRAMReadBytes }},
	{"DRAMWriteBytes", func(c *stats.Counters) int64 { return c.DRAMWriteBytes }},
	{"CTAsRetired", func(c *stats.Counters) int64 { return c.CTAsRetired }},
	{"ThreadsRun", func(c *stats.Counters) int64 { return c.ThreadsRun }},
}

// TestStreamCounterConservation pins the attribution invariant of the
// multi-tenant model: for every additive counter category and every
// conflict-histogram bucket, the per-stream values sum exactly to the
// aggregate — no event is dropped or double-counted — and the slowest
// stream's finish time is the run's cycle count.
func TestStreamCounterConservation(t *testing.T) {
	r := NewRunner()
	res, err := r.Run(RunSpec{
		Config: config.Baseline(),
		Streams: []StreamSpec{
			{Kernel: mustKernel(t, "needle")},
			{Kernel: mustKernel(t, "matrixmul")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Streams) != 2 {
		t.Fatalf("got %d stream results, want 2", len(res.Streams))
	}
	for _, f := range additiveCounters {
		var sum int64
		for _, st := range res.Streams {
			c := st.Counters
			sum += f.get(&c)
		}
		if want := f.get(res.Counters); sum != want {
			t.Errorf("%s: per-stream sum %d != aggregate %d", f.name, sum, want)
		}
	}
	for b := 0; b < stats.ConflictBuckets; b++ {
		var sum int64
		for _, st := range res.Streams {
			sum += st.Counters.ConflictHist[b]
		}
		if want := res.Counters.ConflictHist[b]; sum != want {
			t.Errorf("ConflictHist[%d]: per-stream sum %d != aggregate %d", b, sum, want)
		}
	}
	var slowest int64
	for i, st := range res.Streams {
		if st.Counters.Cycles <= 0 || st.Counters.Cycles > res.Counters.Cycles {
			t.Errorf("stream %d cycles %d outside (0, %d]", i, st.Counters.Cycles, res.Counters.Cycles)
		}
		if st.Counters.Cycles > slowest {
			slowest = st.Counters.Cycles
		}
	}
	if slowest != res.Counters.Cycles {
		t.Errorf("slowest stream finished at %d, aggregate cycles %d", slowest, res.Counters.Cycles)
	}
}

// TestStreamStallConservation runs a mix with the probe attached and
// checks the issue-slot ledger per stream: every issued slot and every
// stall category sums across streams to the aggregate tallies, so the
// per-stream stall table partitions the same 100% the single-kernel
// table does.
func TestStreamStallConservation(t *testing.T) {
	r := NewRunner()
	p := probe.New(0, nil)
	res, err := r.Run(RunSpec{
		Config: config.Baseline(),
		Streams: []StreamSpec{
			{Kernel: mustKernel(t, "vectoradd")},
			{Kernel: mustKernel(t, "dwthaar1d")},
		},
	}, WithProbe(p))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Cycles == 0 {
		t.Fatal("empty run")
	}
	if got := p.NumStreams(); got != 2 {
		t.Fatalf("probe saw %d streams, want 2", got)
	}
	var issued int64
	var stalls [probe.NumStallReasons]int64
	for i := 0; i < p.NumStreams(); i++ {
		issued += p.StreamIssued(i)
		ss := p.StreamStalls(i)
		for c := range ss {
			stalls[c] += ss[c]
		}
	}
	if issued != p.Issued() {
		t.Errorf("per-stream issued sum %d != aggregate %d", issued, p.Issued())
	}
	agg := p.StallSlots()
	for c := range agg {
		if stalls[c] != agg[c] {
			t.Errorf("stall %v: per-stream sum %d != aggregate %d",
				probe.StallReason(c), stalls[c], agg[c])
		}
	}
}

// TestSingleStreamSpellingsAgree pins that a one-entry streams list is
// the plain single-kernel run: reflect.DeepEqual counters, occupancy, and
// energy — under the baseline configuration, where both self-calibrate
// energy, and under a non-baseline one, where both calibrate on the
// kernel's baseline run — with no per-stream results on either. At the
// SM layer, the single stream's books are the aggregate.
func TestSingleStreamSpellingsAgree(t *testing.T) {
	k := mustKernel(t, "sto")
	bigCache := config.Baseline()
	bigCache.CacheBytes *= 2
	for _, cfg := range []config.MemConfig{config.Baseline(), bigCache} {
		r := NewRunner()
		plain, err := r.Run(RunSpec{Config: cfg, Kernel: k})
		if err != nil {
			t.Fatal(err)
		}
		asStream, err := r.Run(RunSpec{Config: cfg, Streams: []StreamSpec{{Kernel: k}}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.Counters, asStream.Counters) {
			t.Errorf("%v: counters diverge:\nplain    %+v\nstreamed %+v", cfg, plain.Counters, asStream.Counters)
		}
		if !reflect.DeepEqual(plain.Occupancy, asStream.Occupancy) {
			t.Errorf("%v: occupancy diverges: plain %+v streamed %+v", cfg, plain.Occupancy, asStream.Occupancy)
		}
		if !reflect.DeepEqual(plain.Energy, asStream.Energy) {
			t.Errorf("%v: energy diverges:\nplain    %+v\nstreamed %+v", cfg, plain.Energy, asStream.Energy)
		}
		if plain.Streams != nil || asStream.Streams != nil {
			t.Errorf("%v: single-kernel runs carry %d and %d stream results, want none",
				cfg, len(plain.Streams), len(asStream.Streams))
		}
	}

	occ := occupancy.ComputeShared([]config.KernelRequirements{k.Requirements()}, config.Baseline(), nil)[0]
	machine, err := sm.NewSM(sm.Spec{
		Config: config.Baseline(),
		Params: sm.DefaultParams(),
		Streams: []sm.StreamSpec{
			{Name: k.Name, Source: &workloads.Source{K: k, Seed: 1}, ResidentCTAs: occ.CTAs},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	aggregate, err := machine.Run()
	if err != nil {
		t.Fatal(err)
	}
	if streams := machine.StreamCounters(); len(streams) != 1 || !reflect.DeepEqual(aggregate, &streams[0]) {
		t.Errorf("the single stream's counters differ from the aggregate:\naggregate %+v\nstreams   %+v", aggregate, streams)
	}
}
