package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/banks"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/probe"
	"repro/internal/sched"
	"repro/internal/sm"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/workloads"
)

// inputs are what a workload hands the component drives: the runs its
// measured phase simulated, the bodies it produced, and (serve-mix) its
// batch requests. Each drive replays them through one layer's public
// functions, timing the calls from outside.
type inputs struct {
	runs    []runInput
	bodies  [][]byte
	batches []batchSample
}

// runInput is one simulated run: a kernel, its workload seed and the
// machine document it ran on.
type runInput struct {
	kernel  *workloads.Kernel
	seed    uint64
	machine machine.Description
}

// prepared is a run resolved to the parts an SM is built from. The
// occupancy comes from core.Runner.Warm at cycle 0, the public path to
// the residency a run admits.
type prepared struct {
	in runInput
	r  *core.Runner
	w  *core.Warm
	// cycles is the run's length, measured by the sm drive.
	cycles int64
	// The sm drive's recorded run: its counters, its DRAM channel and
	// the accesses it sent that channel, in order.
	counters stats.Counters
	channel  *dram.DRAM
	accesses []dramAccess
}

func (p *prepared) smSpec(params sm.Params, pr *probe.Probe) sm.Spec {
	return sm.Spec{Config: p.w.Spec.Config, Params: params, Source: p.w.Source(),
		ResidentCTAs: p.w.Occupancy.CTAs, Probe: pr}
}

func (p *prepared) newSM(params sm.Params, pr *probe.Probe) (*sm.SM, error) {
	return sm.NewSM(p.smSpec(params, pr))
}

// pick returns up to limit of n indices, evenly spread.
func pick(n, limit int) []int {
	if limit <= 0 || limit > n {
		limit = n
	}
	idx := make([]int, limit)
	for i := range idx {
		idx[i] = i * n / limit
	}
	return idx
}

func prepare(runs []runInput, limit int) ([]*prepared, error) {
	var out []*prepared
	for _, i := range pick(len(runs), limit) {
		in := runs[i]
		cfg, params, eparams, err := in.machine.Resolve()
		if err != nil {
			return nil, err
		}
		r := core.NewRunner()
		r.Params = params
		r.Energy.P = eparams
		w, err := r.Warm(context.Background(), core.RunSpec{Kernel: in.kernel, Config: cfg, Seed: in.seed}, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, &prepared{in: in, r: r, w: w})
	}
	return out, nil
}

// drive runs every component drive over the workload's inputs.
func drive(in inputs, limit int, scratch string, rep *report) error {
	preps, err := prepare(in.runs, limit)
	if err != nil {
		return err
	}
	root := rep.spans.root("drives", "")
	defer root.end()
	steps := []func() error{
		func() error { return driveTraces(preps, root, rep) },
		func() error { return driveBanks(preps, root, rep) },
		func() error { return driveSM(preps, root, rep) },
		func() error { return driveMemsys(preps, root, rep) },
		func() error { return driveSnapshot(preps, root, rep) },
		func() error { return driveCore(preps, in.batches, root, rep) },
		func() error { return driveMachine(in.runs, root, rep) },
		func() error { return driveStore(in.bodies, scratch, root, rep) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// sources returns the distinct trace sources of the prepared runs.
func sources(preps []*prepared) []*workloads.Source {
	seen := make(map[string]bool)
	var out []*workloads.Source
	for _, p := range preps {
		s := p.w.Source()
		key := fmt.Sprintf("%s/%d/%d/%d", s.K.Name, s.K.BF, s.RegsAvail, s.Seed)
		if !seen[key] {
			seen[key] = true
			out = append(out, s)
		}
	}
	return out
}

// forWarps calls f for every warp of the source's grid.
func forWarps(s *workloads.Source, f func(cta, warp int)) {
	ctas, warps := s.Grid()
	for c := 0; c < ctas; c++ {
		for w := 0; w < warps; w++ {
			f(c, w)
		}
	}
}

func perCall(d time.Duration, n int, unit time.Duration) float64 {
	return float64(d) / float64(unit) / float64(max(n, 1))
}

// driveTraces builds every trace of the inputs cold (Source.WarpTrace
// on an empty trace cache), then looks them up hot.
func driveTraces(preps []*prepared, parent span, rep *report) error {
	srcs := sources(preps)
	sp := parent.child("workloads.Source.WarpTrace", "cold")
	workloads.ResetTraceCache()
	t0 := time.Now()
	for _, s := range srcs {
		forWarps(s, func(c, w int) { s.WarpTrace(c, w) })
	}
	build := time.Since(t0)
	sp.end()

	sp = parent.child("workloads.Source.WarpTrace", "hot")
	lookups := 0
	t0 = time.Now()
	for round := 0; round < 5; round++ {
		for _, s := range srcs {
			forWarps(s, func(c, w int) { s.WarpTrace(c, w); lookups++ })
		}
	}
	hot := time.Since(t0)
	sp.end()
	rep.add("workloads.trace_build_ms", "ms", perCall(build, len(srcs), time.Millisecond), len(srcs))
	rep.add("workloads.trace_lookup_ns", "ns", perCall(hot, lookups, time.Nanosecond), lookups)
	return nil
}

// driveBanks evaluates every instruction's bank outcome (banks.Outcomes)
// and replays the memoized tables (Source.WarpOutcomes).
func driveBanks(preps []*prepared, parent span, rep *report) error {
	var evalDur, replayDur time.Duration
	insts := 0
	sink := 0
	for _, p := range preps {
		s, design := p.w.Source(), p.w.Spec.Config.Design
		aggressive := p.w.Params.AggressiveScatter
		sp := parent.child("banks.Outcomes", p.in.kernel.Name)
		forWarps(s, func(c, w int) {
			trace := s.WarpTrace(c, w)
			insts += len(trace)
			t0 := time.Now()
			sink += len(banks.Outcomes(design, aggressive, trace))
			evalDur += time.Since(t0)
			s.WarpOutcomes(c, w, design, aggressive) // memoize before the replay is timed
		})
		sp.end()
		sp = parent.child("workloads.Source.WarpOutcomes", p.in.kernel.Name)
		t0 := time.Now()
		forWarps(s, func(c, w int) { sink += len(s.WarpOutcomes(c, w, design, aggressive)) })
		replayDur += time.Since(t0)
		sp.end()
	}
	if sink != 2*insts {
		return fmt.Errorf("bank outcome tables do not cover their traces (%d outcomes, %d instructions)", sink, 2*insts)
	}
	rep.add("banks.evaluate_ns_per_inst", "ns", perCall(evalDur, insts, time.Nanosecond), insts)
	rep.add("banks.replay_ns_per_inst", "ns", perCall(replayDur, insts, time.Nanosecond), insts)
	return nil
}

// dramAccess is one recorded DRAM access.
type dramAccess struct {
	now   int64
	addr  uint32
	bytes int
	write bool
}

// recorder is a memsys.Memory that records the accesses it forwards to
// a channel.
type recorder struct {
	next     *dram.DRAM
	accesses []dramAccess
}

func (r *recorder) Read(now int64, addr uint32, bytes int) int64 {
	r.accesses = append(r.accesses, dramAccess{now, addr, bytes, false})
	return r.next.Read(now, addr, bytes)
}

func (r *recorder) Write(now int64, addr uint32, bytes int) {
	r.accesses = append(r.accesses, dramAccess{now, addr, bytes, true})
	r.next.Write(now, addr, bytes)
}

// driveMemsys replays each input's global loads and stores through a
// memory pipeline (memsys.New over dram.New) configured from its
// machine, timing the calls; they issue at the average spacing they had
// in the input's run. It then replays the DRAM accesses of the sm
// drive's recorded run into a fresh channel of the machine's own
// configuration, timing the reads. The hit ratios and the queueing stall
// are the recorded run's own.
func driveMemsys(preps []*prepared, parent span, rep *report) error {
	var loadDur, storeDur, readDur time.Duration
	var nLoads, nStores, nReads int
	var probes, hits, rowHits, rowMisses, stall int64
	for _, p := range preps {
		var loads, stores []*isa.WarpInst
		s := p.w.Source()
		forWarps(s, func(c, w int) {
			trace := s.WarpTrace(c, w)
			for i := range trace {
				switch trace[i].Op {
				case isa.OpLDG:
					loads = append(loads, &trace[i])
				case isa.OpSTG:
					stores = append(stores, &trace[i])
				}
			}
		})
		params, cfg := p.w.Params, p.w.Spec.Config
		mcfg := memsys.Config{CacheBytes: cfg.CacheBytes, CacheLatency: params.CacheLatency,
			TexLatency: params.TexLatency, DRAMLatency: params.DRAM.LatencyCycles,
			MaxMSHRs: params.MaxMSHRs, WriteBack: params.WriteBackCache}
		issueGap := max(1, p.cycles/int64(max(len(loads)+len(stores), 1)))

		sp := parent.child("memsys.MemSys.Load", p.in.kernel.Name)
		m := memsys.New(mcfg, dram.New(params.DRAM), &stats.Counters{})
		t0 := time.Now()
		for i, wi := range loads {
			m.Load(wi, int64(i)*issueGap, 0)
		}
		loadDur += time.Since(t0)
		sp.end()
		nLoads += len(loads)

		sp = parent.child("memsys.MemSys.Store", p.in.kernel.Name)
		m = memsys.New(mcfg, dram.New(params.DRAM), &stats.Counters{})
		t0 = time.Now()
		for i, wi := range stores {
			m.Store(wi, int64(i)*issueGap, 0)
		}
		storeDur += time.Since(t0)
		sp.end()
		nStores += len(stores)

		sp = parent.child("dram.DRAM.Read", p.in.kernel.Name)
		d := dram.New(params.DRAM)
		acc := p.accesses
		for i := 0; i < len(acc); {
			if acc[i].write {
				d.Write(acc[i].now, acc[i].addr, acc[i].bytes)
				i++
				continue
			}
			t0 := time.Now()
			for ; i < len(acc) && !acc[i].write; i++ {
				d.Read(acc[i].now, acc[i].addr, acc[i].bytes)
			}
			readDur += time.Since(t0)
		}
		sp.end()
		h, mi := p.channel.RowStats()
		if rh, rm := d.RowStats(); d.String() != p.channel.String() || d.BusFreeAt() != p.channel.BusFreeAt() || rh != h || rm != mi {
			return fmt.Errorf("%s: replayed DRAM channel (%s) differs from the run's (%s)", p.in.kernel.Name, d, p.channel)
		}
		p.accesses = nil
		reads, _ := p.channel.Accesses()
		nReads += int(reads)
		rowHits += h
		rowMisses += mi
		stall += p.channel.QueueingStall()
		probes += p.counters.CacheProbes
		hits += p.counters.CacheHits
	}
	rep.add("memsys.load_ns", "ns", perCall(loadDur, nLoads, time.Nanosecond), nLoads)
	rep.add("memsys.store_ns", "ns", perCall(storeDur, nStores, time.Nanosecond), nStores)
	rep.add("memsys.l1_hit_ratio", "ratio", float64(hits)/float64(max(probes, 1)), int(probes))
	rep.add("dram.read_ns", "ns", perCall(readDur, nReads, time.Nanosecond), nReads)
	rep.add("dram.row_hit_ratio", "ratio", float64(rowHits)/float64(max(rowHits+rowMisses, 1)), int(rowHits+rowMisses))
	rep.add("dram.queue_stall_kcycles", "kcycles", float64(stall)/1e3, nReads)
	return nil
}

// stepRun is one timed SM run, stepped from Start to Done.
type stepRun struct {
	steps, mallocs, cycles int64
	dur                    time.Duration
}

func (a *stepRun) add(b stepRun) {
	a.steps += b.steps
	a.mallocs += b.mallocs
	a.cycles += b.cycles
	a.dur += b.dur
}

func (a stepRun) ns() float64 { return perCall(a.dur, int(a.steps), time.Nanosecond) }

func stepToEnd(s *sm.SM) (stepRun, error) {
	var before, after runtime.MemStats
	var run stepRun
	s.Start()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for !s.Done() {
		if err := s.Step(); err != nil {
			return run, err
		}
		run.steps++
	}
	run.dur = time.Since(t0)
	runtime.ReadMemStats(&after)
	run.mallocs = int64(after.Mallocs - before.Mallocs)
	run.cycles = s.Finish().Cycles
	return run, nil
}

// driveSM steps each input's SM from Start to Done: once untimed on a
// recorded DRAM channel, then timed under the input's own parameters,
// under each scheduling policy, and with a probe attached. It also times
// construction (NewSM plus Start).
func driveSM(preps []*prepared, parent span, rep *report) error {
	variants := []struct {
		name string
		set  func(p *sm.Params)
		pr   bool
	}{
		{"sm", func(*sm.Params) {}, false},
		{"sched.twolevel", func(p *sm.Params) { p.Scheduler = sched.TwoLevel }, false},
		{"sched.gto", func(p *sm.Params) { p.Scheduler = sched.GTO }, false},
		{"probe", func(*sm.Params) {}, true},
	}
	totals := make([]stepRun, len(variants))
	var newDur time.Duration
	news := 0
	for _, p := range preps {
		// The first run, untimed, grows every scratch buffer to its
		// high-water mark. Its channel records every access, so the
		// memsys and dram drives report this run's own behaviour.
		rec := &recorder{next: dram.New(p.w.Params.DRAM)}
		spec := p.smSpec(p.w.Params, nil)
		spec.Memory = rec
		s, err := sm.NewSM(spec)
		if err != nil {
			return err
		}
		if _, err := stepToEnd(s); err != nil {
			return err
		}
		p.counters, p.channel, p.accesses = *s.Finish(), rec.next, rec.accesses
		for vi, v := range variants {
			params := p.w.Params
			v.set(&params)
			var pr *probe.Probe
			if v.pr {
				pr = probe.New(0, io.Discard)
			}
			if s, err = p.newSM(params, pr); err != nil {
				return err
			}
			sp := parent.child("sm.SM.Step", v.name+" "+p.in.kernel.Name)
			run, err := stepToEnd(s)
			sp.end()
			if err != nil {
				return err
			}
			totals[vi].add(run)
			if vi == 0 {
				p.cycles = run.cycles
			}
		}
		sp := parent.child("sm.NewSM", p.in.kernel.Name)
		t0 := time.Now()
		for i := 0; i < 10; i++ {
			s, err := p.newSM(p.w.Params, nil)
			if err != nil {
				return err
			}
			s.Start()
		}
		newDur += time.Since(t0)
		news += 10
		sp.end()
	}
	base := totals[0]
	rep.add("sm.step_ns", "ns", base.ns(), int(base.steps))
	rep.add("sm.allocs_per_step", "allocs", float64(base.mallocs)/float64(max(base.steps, 1)), int(base.steps))
	rep.add("sm.steps_per_kcycle", "steps", float64(base.steps)/float64(max(base.cycles, 1))*1e3, int(base.cycles))
	rep.add("sm.new_us", "us", perCall(newDur, news, time.Microsecond), news)
	rep.add("sched.twolevel.step_ns", "ns", totals[1].ns(), int(totals[1].steps))
	rep.add("sched.gto.step_ns", "ns", totals[2].ns(), int(totals[2].steps))
	rep.add("probe.step_ns", "ns", totals[3].ns(), int(totals[3].steps))
	rep.add("probe.overhead_pct", "%", (totals[3].ns()/base.ns()-1)*100, int(totals[3].steps))
	return nil
}

// driveSnapshot captures each input's SM halfway through its run
// (sm.SM.Snapshot), forks it (sm.Fork), and resumes a warmed prefix of
// the same length to completion (core.Warm.Resume). A workload whose
// measured phase forks reports its own resume time and reuse instead.
func driveSnapshot(preps []*prepared, parent span, rep *report) error {
	const reps = 10
	var capDur, forkDur, resumeDur time.Duration
	var warmCycles, fullCycles int64
	for _, p := range preps {
		mid := p.cycles / 2
		s, err := p.newSM(p.w.Params, nil)
		if err != nil {
			return err
		}
		if err := s.RunTo(mid); err != nil {
			return err
		}
		sp := parent.child("sm.SM.Snapshot", p.in.kernel.Name)
		t0 := time.Now()
		st, err := s.Snapshot()
		for i := 1; i < reps && err == nil; i++ {
			st, err = s.Snapshot()
		}
		capDur += time.Since(t0)
		sp.end()
		if err != nil {
			return err
		}
		sp = parent.child("sm.Fork", p.in.kernel.Name)
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			if _, err := sm.Fork(p.smSpec(p.w.Params, nil), st); err != nil {
				return err
			}
		}
		forkDur += time.Since(t0)
		sp.end()

		w, err := p.r.Warm(context.Background(), p.w.Spec, mid)
		if err != nil {
			return err
		}
		sp = parent.child("core.Warm.Resume", p.in.kernel.Name)
		t0 = time.Now()
		res, err := w.Resume(context.Background(), p.r, p.w.Params)
		resumeDur += time.Since(t0)
		sp.end()
		if err != nil {
			return err
		}
		warmCycles += w.Cycle
		fullCycles += res.Counters.Cycles
	}
	n := len(preps)
	rep.add("snapshot.capture_us", "us", perCall(capDur, n*reps, time.Microsecond), n*reps)
	rep.add("snapshot.fork_us", "us", perCall(forkDur, n*reps, time.Microsecond), n*reps)
	if _, ok := rep.get("snapshot.resume_ms"); !ok {
		rep.add("snapshot.resume_ms", "ms", perCall(resumeDur, n, time.Millisecond), n)
		rep.add("snapshot.reuse_ratio", "ratio", float64(warmCycles)/float64(max(fullCycles, 1)), n)
	}
	return nil
}

// directRun times one core.Runner.RunCtx call of the input, after the
// runner has cached the kernel's energy baseline.
func directRun(in runInput, parent span) (time.Duration, error) {
	cfg, params, eparams, err := in.machine.Resolve()
	if err != nil {
		return 0, err
	}
	r := core.NewRunner()
	r.Params = params
	r.Energy.P = eparams
	if _, err := r.Baseline(in.kernel); err != nil {
		return 0, err
	}
	sp := parent.child("core.Runner.RunCtx", in.kernel.Name)
	t0 := time.Now()
	_, err = r.RunCtx(context.Background(), core.RunSpec{Kernel: in.kernel, Config: cfg, Seed: in.seed})
	d := time.Since(t0)
	sp.end()
	return d, err
}

// driveCore times core.Runner.RunCtx on each input directly. For a
// workload that sent batches it also sets the batches' new items against
// their latency: parallel.batch_efficiency is the items' summed direct
// run time over batch latency times workers.
func driveCore(preps []*prepared, batches []batchSample, parent span, rep *report) error {
	var total time.Duration
	for _, p := range preps {
		d, err := directRun(p.in, parent)
		if err != nil {
			return err
		}
		total += d
	}
	rep.add("core.run_ms", "ms", perCall(total, len(preps), time.Millisecond), len(preps))
	if len(batches) == 0 {
		return nil
	}
	var items time.Duration
	var latency float64
	sampled := batches[:min(len(batches), 4)]
	for _, b := range sampled {
		for _, in := range b.fresh {
			d, err := directRun(in, parent)
			if err != nil {
				return err
			}
			items += d
		}
		latency += b.seconds
	}
	rep.add("parallel.batch_efficiency", "ratio", items.Seconds()/(latency*float64(runtime.NumCPU())), len(sampled))
	return nil
}

// driveMachine times the canonical key (machine.Key) and resolution
// (Description.Resolve) of the inputs' machine documents.
func driveMachine(runs []runInput, parent span, rep *report) error {
	const calls = 2000
	docs := make([]machine.Description, 0, len(runs))
	seen := make(map[string]bool)
	for _, in := range runs {
		b, err := json.Marshal(in.machine)
		if err != nil {
			return err
		}
		if !seen[string(b)] {
			seen[string(b)] = true
			docs = append(docs, in.machine)
		}
	}
	sp := parent.child("machine.Key", "")
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		if _, err := machine.Key(docs[i%len(docs)]); err != nil {
			return err
		}
	}
	keyDur := time.Since(t0)
	sp.end()
	sp = parent.child("machine.Description.Resolve", "")
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		if _, _, _, err := docs[i%len(docs)].Resolve(); err != nil {
			return err
		}
	}
	resolveDur := time.Since(t0)
	sp.end()
	rep.add("machine.key_us", "us", perCall(keyDur, calls, time.Microsecond), calls)
	rep.add("machine.resolve_us", "us", perCall(resolveDur, calls, time.Microsecond), calls)
	return nil
}

// driveStore writes the workload's own bodies into a fresh store under
// their content digest (store.Put), then reads them back (store.Get).
func driveStore(bodies [][]byte, scratch string, parent span, rep *report) error {
	dir, err := os.MkdirTemp(scratch, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	keys := make([]string, len(bodies))
	for i, b := range bodies {
		sum := sha256.Sum256(b)
		keys[i] = hex.EncodeToString(sum[:])
	}
	sp := parent.child("store.Store.Put", "")
	t0 := time.Now()
	for i, b := range bodies {
		if err := st.Put(keys[i], b); err != nil {
			return err
		}
	}
	putDur := time.Since(t0)
	sp.end()
	sp = parent.child("store.Store.Get", "")
	t0 = time.Now()
	for i, b := range bodies {
		got, ok := st.Get(keys[i])
		if !ok || string(got) != string(b) {
			return fmt.Errorf("store returned a different body for %s", keys[i])
		}
	}
	getDur := time.Since(t0)
	sp.end()
	rep.add("store.put_us", "us", perCall(putDur, len(bodies), time.Microsecond), len(bodies))
	rep.add("store.get_us", "us", perCall(getDur, len(bodies), time.Microsecond), len(bodies))
	return nil
}
