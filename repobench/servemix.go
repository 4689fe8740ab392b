package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/config"
	"repro/internal/machine"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// serveMix drives an in-process smserve (serve.New over a fresh data
// directory, Handler behind httptest) closed-loop from nproc clients,
// because api.Client's Run and Batch each wait for their reply. The
// request stream is assumed, not recorded: it mixes fresh /v1/run keys
// (misses), repeats of recent keys (LRU hits), repeats of keys the small
// LRU has evicted (store hits), a few probed misses, and 26-item
// /v1/batch requests mixing new and repeated keys. Decode, resolve and
// the canonical hash, the LRU, the store, admission and batch fan-out do
// the work; the cycle loop runs only on misses, and every trace is
// built in setup. Every response must be a 200, and every body for one
// request must be byte-identical whether it came from a miss, a hit, the
// store or a batch item.
type serveMix struct {
	e      *env
	dir    string
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	gen    *generator
	start  api.Snapshot // /metrics when the measured phase began

	mu      sync.Mutex // guards everything below (clients record concurrently)
	digests map[int][32]byte
	lat     map[string][]float64 // seconds per request, by X-Cache state or "batch"
	batches []batchSample
	// batchMisses sums the misses batch replies reported in their
	// X-Cache header ("hits=H misses=M").
	batchMisses int
	wall        []float64 // seconds per pass
	bodies      [][]byte  // the first run bodies, for the store drive
}

// batchSample is one batch request: its latency and the runs that were
// new keys when it was generated.
type batchSample struct {
	seconds float64
	fresh   []runInput
}

const (
	batchItems = 26
	batchFresh = 4 // new keys per batch; the rest repeat earlier keys
	lruEntries = 32
)

func setupServeMix(e *env) (instance, error) {
	gen, err := newGenerator(e.seed, e.size.kernels)
	if err != nil {
		return nil, err
	}
	workloads.ResetTraceCache()
	for _, s := range gen.traceSet() {
		ctas, warps := s.Grid()
		for c := 0; c < ctas; c++ {
			for w := 0; w < warps; w++ {
				s.WarpTrace(c, w)
				for _, d := range []config.Design{config.Partitioned, config.Unified} {
					s.WarpOutcomes(c, w, d, false)
				}
			}
		}
	}
	dir, err := os.MkdirTemp(e.scratch, "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{DataDir: dir, CacheEntries: lruEntries, InFlight: runtime.NumCPU()})
	if err != nil {
		return nil, err
	}
	s := &serveMix{e: e, dir: dir, srv: srv, ts: httptest.NewServer(srv.Handler()), gen: gen,
		digests: make(map[int][32]byte), lat: make(map[string][]float64)}
	s.client = s.ts.Client()
	// Seed the store: one batch of fresh keys that later traffic evicts
	// from the LRU, so store hits occur from the first pass on.
	if r := s.do(gen.prefill(), span{}); !s.check(r) {
		s.close()
		return nil, fmt.Errorf("serve-mix: prefill batch failed (status %d)", r.status)
	}
	s.start, err = s.metrics()
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveMix) prepare() error { return nil }

// reply is one request's outcome.
type reply struct {
	op      op
	status  int
	cache   string
	body    []byte
	seconds float64
	err     error
}

func (s *serveMix) do(o op, parent span) reply {
	path := "/v1/run"
	if o.batch {
		path = "/v1/batch"
	}
	sp := parent.child("serve.POST "+path, o.label)
	t0 := time.Now()
	r := reply{op: o}
	resp, err := s.client.Post(s.ts.URL+path, "application/json", bytes.NewReader(o.body))
	if err == nil {
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		r.status, r.cache = resp.StatusCode, resp.Header.Get("X-Cache")
	}
	r.seconds = time.Since(t0).Seconds()
	r.err = err
	sp.end()
	return r
}

// check reports whether a reply is a 200 whose bodies match every body
// seen before for the same runs.
func (s *serveMix) check(r reply) bool {
	if r.err != nil || r.status != http.StatusOK {
		return false
	}
	if !r.op.batch {
		return s.same(r.op.runs[0], bytes.TrimSuffix(r.body, []byte("\n")))
	}
	var b struct {
		Results []json.RawMessage `json:"results"`
	}
	if json.Unmarshal(r.body, &b) != nil || len(b.Results) != len(r.op.runs) {
		return false
	}
	ok := true
	for i, raw := range b.Results {
		var item struct {
			Result json.RawMessage `json:"result"`
			Error  *api.Error      `json:"error"`
		}
		if json.Unmarshal(raw, &item) != nil || item.Error != nil || len(item.Result) == 0 || !s.same(r.op.runs[i], item.Result) {
			ok = false
		}
	}
	return ok
}

// same records the first body seen for run and reports whether body
// equals it.
func (s *serveMix) same(run int, body []byte) bool {
	d := sha256.Sum256(body)
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, seen := s.digests[run]
	if !seen {
		s.digests[run] = d
		if len(s.bodies) < 64 {
			s.bodies = append(s.bodies, append([]byte(nil), body...))
		}
	}
	return !seen || prev == d
}

func (s *serveMix) pass(parent span, w *window) (passResult, error) {
	ops := make([]op, s.e.size.requests)
	for i := range ops {
		ops[i] = s.gen.next()
	}
	replies := make([]reply, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	before := w.wall
	w.time(func() {
		for c := 0; c < runtime.NumCPU(); c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(ops); i = int(next.Add(1)) - 1 {
					replies[i] = s.do(ops[i], parent)
				}
			}()
		}
		wg.Wait()
	})
	wall := (w.wall - before).Seconds()

	var res passResult
	for _, r := range replies {
		res.ops++
		if !s.check(r) {
			res.failed++
			fmt.Fprintf(s.e.log, "serve-mix: %s: status %d, X-Cache %q, err %v: not a 200 with the body seen before\n",
				r.op.label, r.status, r.cache, r.err)
		}
		s.mu.Lock()
		if r.op.batch {
			var hits, misses int
			if _, err := fmt.Sscanf(r.cache, "hits=%d misses=%d", &hits, &misses); err == nil {
				s.batchMisses += misses
			}
			s.lat["batch"] = append(s.lat["batch"], r.seconds)
			b := batchSample{seconds: r.seconds}
			for _, i := range r.op.runs[:r.op.fresh] {
				b.fresh = append(b.fresh, s.gen.specs[i].input)
			}
			s.batches = append(s.batches, b)
		} else {
			s.lat[r.cache] = append(s.lat[r.cache], r.seconds)
		}
		s.mu.Unlock()
	}
	s.wall = append(s.wall, wall)
	return res, nil
}

func (s *serveMix) metrics() (api.Snapshot, error) {
	var snap api.Snapshot
	resp, err := s.client.Get(s.ts.URL + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// report adds the end-to-end latencies by X-Cache state and the serve
// layer's counters over the measured phase, from /metrics.
func (s *serveMix) report(r *report) error {
	rps := make([]float64, len(s.wall))
	for i, w := range s.wall {
		rps[i] = float64(s.e.size.requests) / w
	}
	r.add("rps", "1/s", median(rps), len(rps))
	r.addPercentile("run_miss_p50_ms", "ms", s.lat["miss"], 0.5, 1e3)
	r.addPercentile("run_miss_p90_ms", "ms", s.lat["miss"], 0.9, 1e3)
	r.addPercentile("run_hit_p50_us", "us", s.lat["hit"], 0.5, 1e6)
	r.addPercentile("run_hit_p99_us", "us", s.lat["hit"], 0.99, 1e6)
	r.addPercentile("run_stored_p50_us", "us", s.lat["stored"], 0.5, 1e6)
	r.addPercentile("batch_p50_ms", "ms", s.lat["batch"], 0.5, 1e3)
	r.addPercentile("batch_p90_ms", "ms", s.lat["batch"], 0.9, 1e3)

	end, err := s.metrics()
	if err != nil {
		return err
	}
	simRuns := end.SimRuns - s.start.SimRuns
	simSecs := end.SimSeconds.SumSecs - s.start.SimSeconds.SumSecs
	misses := int64(len(s.lat["miss"]) + s.batchMisses)
	hits := end.CacheHits - s.start.CacheHits
	lookups := hits + end.CacheMisses - s.start.CacheMisses
	perMiss := simSecs / float64(max(simRuns, 1))
	r.add("serve.lru_hit_ratio", "ratio", float64(hits)/float64(max(lookups, 1)), int(lookups))
	r.add("serve.sim_s_per_miss", "s", perMiss, int(simRuns))
	r.add("serve.overhead_ms_per_miss", "ms", (mean(s.lat["miss"])-perMiss)*1e3, len(s.lat["miss"]))
	r.add("serve.sim_runs_per_miss", "ratio", float64(simRuns)/float64(max(misses, 1)), int(misses))
	r.add("serve.rejected", "count", float64(end.Rejected-s.start.Rejected), 0)
	return nil
}

// inputs are the first miss requests' kernels and machine documents, and
// the first response bodies.
func (s *serveMix) inputs() inputs {
	var in inputs
	for _, sp := range s.gen.specs {
		if !sp.req.Probe {
			in.runs = append(in.runs, sp.input)
		}
		if len(in.runs) == 4*s.e.size.drives {
			break
		}
	}
	in.bodies = s.bodies
	in.batches = s.batches
	return in
}

func (s *serveMix) close() error {
	s.ts.Close()
	s.srv.Close()
	return os.RemoveAll(s.dir)
}

// spec is one distinct run request.
type spec struct {
	req   api.RunRequest
	input runInput
	body  []byte // the request marshaled for /v1/run
	last  int    // the generator's clock when a request last touched it
}

// op is one request: a single run or a batch.
type op struct {
	batch bool
	runs  []int // spec indices; one for a run request
	fresh int   // leading runs that were new keys (batches)
	label string
	body  []byte
}

// generator draws the request stream from the seed. It models the
// server's LRU as if requests completed in order (the clock ticks once
// per run a request touches) to aim repeats at keys that are still
// cached or already evicted; the X-Cache header says where each one was
// actually answered.
type generator struct {
	rng     *rand.Rand
	kernels []*workloads.Kernel
	order   []int    // the next kernels to draw, a shuffled round of all of them
	deck    []string // the next request kinds, a shuffled round of the mix
	specs   []spec
	seen    map[string]bool
	log     []int // spec index per clock tick
}

// mix is one round of request kinds; the stream deals shuffled rounds,
// so every 25 requests hold exactly this mix. No record of what callers
// send exists, so the shares are chosen, each for a reason:
//   - 44% fresh runs: misses are the only requests that run the cycle
//     loop, and at this share a run collects the hundreds of misses a
//     p90 needs;
//   - 4% probed fresh runs: one per round, the small share probes get;
//   - 28% repeats of cached keys: a client re-asks for points it asked
//     for recently, and hits are the cheapest requests, so they need
//     many samples for a steady p50;
//   - 16% repeats of evicted keys: enough store reads per pass for a
//     p50, while fresh runs still write the store faster than it is read;
//   - 8% batches: two per round, whose 52 items outnumber the round's
//     23 single runs, as a client fanning out a grid would.
//
// Dealing rounds instead of drawing each kind keeps every pass's
// composition, and so its cost, the same.
var mix = []struct {
	kind  string
	count int
}{
	{"miss", 11}, {"probe", 1}, {"hit", 7}, {"stored", 4}, {"batch", 2},
}

// Hit repeats aim at keys touched between hitLag and hitWindow ticks
// ago: old enough to have completed, young enough to still be among the
// lruEntries cached ones. Stored repeats aim at keys untouched for
// storedAge ticks.
const (
	hitLag    = 4
	hitWindow = 24
	storedAge = 4 * lruEntries
)

func newGenerator(seed uint64, names []string) (*generator, error) {
	g := &generator{rng: rand.New(rand.NewPCG(seed, 3)), seen: make(map[string]bool)}
	if names == nil {
		g.kernels = workloads.All()
	}
	for _, n := range names {
		k, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		g.kernels = append(g.kernels, k)
	}
	return g, nil
}

// traceSeed is the workload seed of every request: one trace per kernel
// keeps the built traces, which setup makes hot, at a few hundred MB.
// Fresh keys come from the machine documents instead.
const traceSeed = 1

func (g *generator) traceSet() []*workloads.Source {
	out := make([]*workloads.Source, len(g.kernels))
	for i, k := range g.kernels {
		out[i] = &workloads.Source{K: k, Seed: traceSeed}
	}
	return out
}

// fresh draws a run request no earlier request used. Kernels come in
// shuffled rounds of the whole set; the machine varies over designs,
// capacities every registry kernel fits, DRAM latency, bandwidth and row
// model (half flat, half 2 KB open rows, so the runs themselves use the
// channel's row model), and scheduler. These ranges are chosen around
// the paper's Table 2 machine, not recorded from callers. The MSHR bound
// stays unbounded: a bounded table makes some kernels' runs last seconds
// (see forkAxes), which would let a handful of requests set a pass's
// time.
func (g *generator) fresh(probe bool) int {
	for {
		if len(g.order) == 0 {
			g.order = g.rng.Perm(len(g.kernels))
		}
		k := g.kernels[g.order[0]]
		g.order = g.order[1:]
		d := machine.Description{Design: []string{"partitioned", "unified"}[g.rng.IntN(2)], RFKB: 256}
		d.SharedKB = []int{64, 96}[g.rng.IntN(2)]
		d.CacheKB = []int{32, 64, 128}[g.rng.IntN(3)]
		d.Timing.DRAMLatency = 300 + g.rng.Int64N(301)
		d.Timing.DRAMBytesPerCycle = []int{6, 8, 12}[g.rng.IntN(3)]
		d.Timing.DRAMRowBytes = []int{0, 2048}[g.rng.IntN(2)]
		d.Timing.Scheduler = []string{"twolevel", "gto"}[g.rng.IntN(2)]
		req := api.RunRequest{Kernel: k.Name, Machine: d, Seed: traceSeed, Probe: probe}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // a RunRequest always marshals
		}
		if g.seen[string(body)] {
			continue
		}
		g.seen[string(body)] = true
		g.specs = append(g.specs, spec{req: req, body: body,
			input: runInput{kernel: k, seed: req.Seed, machine: d}})
		return len(g.specs) - 1
	}
}

func (g *generator) touch(i int) {
	g.specs[i].last = len(g.log)
	g.log = append(g.log, i)
}

// repeat picks a spec last touched at a clock tick in [lo, hi), or -1.
func (g *generator) repeat(lo, hi int) int {
	lo = max(lo, 0)
	if hi <= lo {
		return -1
	}
	for try := 0; try < 8; try++ {
		t := lo + g.rng.IntN(hi-lo)
		if i := g.log[t]; g.specs[i].last == t {
			return i
		}
	}
	return -1
}

func (g *generator) run(i int, kind string) op {
	g.touch(i)
	return op{runs: []int{i}, label: kind + " " + g.specs[i].req.Kernel, body: g.specs[i].body}
}

func (g *generator) batch(fresh int) op {
	o := op{batch: true, fresh: fresh, label: "batch"}
	for len(o.runs) < batchItems {
		i := -1
		if len(o.runs) >= fresh {
			i = g.repeat(0, len(g.log))
		}
		if i < 0 {
			i = g.fresh(false)
		}
		o.runs = append(o.runs, i)
	}
	req := api.BatchRequest{Runs: make([]api.RunRequest, len(o.runs))}
	for j, i := range o.runs {
		req.Runs[j] = g.specs[i].req
		g.touch(i)
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a BatchRequest always marshals
	}
	o.body = body
	return o
}

// prefill is the setup batch: all fresh keys.
func (g *generator) prefill() op { return g.batch(batchItems) }

// next draws the next request of the stream.
func (g *generator) next() op {
	if len(g.deck) == 0 {
		for _, m := range mix {
			for i := 0; i < m.count; i++ {
				g.deck = append(g.deck, m.kind)
			}
		}
		g.rng.Shuffle(len(g.deck), func(a, b int) { g.deck[a], g.deck[b] = g.deck[b], g.deck[a] })
	}
	kind := g.deck[0]
	g.deck = g.deck[1:]
	now := len(g.log)
	switch kind {
	case "probe":
		return g.run(g.fresh(true), kind)
	case "hit":
		if i := g.repeat(now-hitWindow, now-hitLag); i >= 0 {
			return g.run(i, kind)
		}
	case "stored":
		if i := g.repeat(0, now-storedAge); i >= 0 {
			return g.run(i, kind)
		}
	case "batch":
		return g.batch(batchFresh)
	}
	return g.run(g.fresh(false), "miss")
}
