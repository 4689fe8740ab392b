// Package serve is the simulation service: a long-running HTTP/JSON
// front end that turns the one-shot CLI workflow (smsim, paper, sweep)
// into a shared, amortized process — the repository's
// inference-serving-shaped component: batching, caching, durable async
// jobs, backpressure, and determinism under concurrency.
//
// The public surface — every request/response DTO, the error envelope,
// and a thin client — lives in the api package; this package is the
// implementation. Endpoints (all bodies JSON):
//
//	POST   /v1/run              one kernel simulation       -> api.RunResponse
//	POST   /v1/batch            many simulations, fanned out-> api.BatchResponse
//	POST   /v1/experiment       a named paper experiment    -> api.ExperimentResponse
//	POST   /v1/jobs             submit an async job (202)   -> api.Job
//	GET    /v1/jobs             list jobs                   -> []api.Job
//	GET    /v1/jobs/{id}        poll status and progress    -> api.Job
//	GET    /v1/jobs/{id}/result final result bytes
//	DELETE /v1/jobs/{id}        cancel                      -> api.Job
//	GET    /v1/kernels          the benchmark registry      -> []api.KernelInfo
//	GET    /healthz             liveness
//	GET    /metrics             counters and histograms     -> api.Snapshot
//
// Four properties define the service:
//
//   - Canonical result caching. Every run request is canonicalized by
//     internal/plan, the resolver cmd/sweep, cmd/smsim and campaigns share —
//     machine JSON resolved and re-rendered with defaults filled and
//     aliases collapsed (machine.Describe), kernel and register budget
//     clamped the way the simulator clamps them — and hashed into a
//     deterministic SHA-256 key. Completed response bodies are memoized
//     in a bounded LRU keyed by that hash, layered over the process-wide
//     trace cache (internal/workloads), so a repeated request is served
//     from memory with a byte-identical body. Identical requests in
//     flight at the same time are coalesced: one simulates, the rest
//     wait for its bytes. The X-Cache header says which path answered:
//     hit, stored, coalesced, or miss.
//
//   - Durable results. With Options.DataDir set, the same canonical key
//     addresses a persistent content-addressed store (internal/store)
//     underneath the LRU: completed bodies are written once, replayed
//     across restarts, and shared by the sync endpoints and the job
//     engine alike. This is what makes jobs resumable — a restarted
//     server re-enters persisted jobs (internal/jobs) and their already
//     completed items are answered from the store instead of
//     re-simulated.
//
//   - Bounded admission. A parallel.Gate bounds how many synchronous
//     requests simulate concurrently, with a bounded wait queue behind
//     the slots; beyond that the service answers 429 with a Retry-After
//     header and a retry_after_s hint in the envelope instead of
//     queueing without bound. Async jobs run under their own gate
//     (Options.JobSlots) so a long sweep job cannot starve interactive
//     requests of queue slots. Batch and job items fan out through
//     parallel.Map under the process worker budget (parallel.SetWorkers),
//     which keeps assembled bodies byte-identical for every worker
//     count. Per-request deadlines flow through core.RunCtx into the
//     simulator's cycle loop; an exceeded deadline answers 504.
//
//   - Deterministic bodies and errors. The simulator is deterministic,
//     responses are marshaled once and replayed as raw bytes, and
//     nothing time- or order-dependent is ever written into a response
//     body (timing lives in headers and /metrics), so identical
//     requests always produce identical bytes — including a job's
//     final result versus the equivalent synchronous call. Every
//     non-2xx response is the one envelope shape api.ErrorBody with a
//     stable machine-readable code.
//
// cmd/smserve wires this package to flags, an *http.Server, and
// SIGTERM-graceful draining.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/api"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/jobs"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/probe"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/workloads"
)

// Options configures a Server. The zero value selects the defaults
// noted on each field.
type Options struct {
	// InFlight bounds concurrently simulating synchronous requests (gate
	// slots); default 2. Total simulation goroutines are bounded by
	// InFlight times the parallel.SetWorkers budget batch items fan out
	// under.
	InFlight int
	// Queue bounds requests waiting behind the slots; beyond it the
	// service answers 429. 0 takes the default of 64; negative means no
	// queue at all (reject the moment the slots are busy).
	Queue int
	// CacheEntries bounds the result LRU. Default 256.
	CacheEntries int
	// DefaultTimeout is the per-request simulation deadline when the
	// request does not set timeout_ms. Default 60s.
	DefaultTimeout time.Duration
	// DataDir enables persistence: completed result bodies under
	// <DataDir>/results (content-addressed by canonical key) and job
	// records under <DataDir>/jobs. Empty runs fully in-memory — jobs
	// still work but die with the process.
	DataDir string
	// JobSlots bounds concurrently executing async jobs (default 2);
	// JobQueue bounds jobs waiting behind them (default 1024). Jobs
	// admit through their own gate, not the synchronous one.
	JobSlots int
	JobQueue int

	// execWrap, when set, wraps the job engine's item executor — a test
	// hook (package-internal) for deterministic kill/restart tests.
	execWrap func(jobs.Exec) jobs.Exec
	// simulateWrap, when set, wraps the simulation of every run the
	// service computes — a test hook (package-internal) that makes
	// chosen runs fail.
	simulateWrap func(simulateFunc) simulateFunc
}

// simulateFunc is the shape of Server.simulate.
type simulateFunc func(ctx context.Context, rr *plan.Run) (int, []byte)

func (o Options) withDefaults() Options {
	if o.InFlight < 1 {
		o.InFlight = 2
	}
	if o.Queue == 0 {
		o.Queue = 64
	}
	if o.Queue < 0 {
		o.Queue = 0
	}
	if o.CacheEntries < 1 {
		o.CacheEntries = 256
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 60 * time.Second
	}
	return o
}

// Server is the simulation service. Create one with New, mount Handler
// on an *http.Server, and Close it on shutdown; Server is safe for
// concurrent use.
type Server struct {
	opts    Options
	gate    *parallel.Gate
	cache   *resultCache
	store   *store.Store // nil without DataDir
	engine  *jobs.Engine
	metrics metrics

	// runners shares baseline calibrations across requests to the same
	// (timing, energy) parameters.
	runners plan.Runners
	// sim is simulate, behind Options.simulateWrap when set.
	sim simulateFunc

	// flight coalesces concurrent identical requests onto one
	// computation.
	flightMu sync.Mutex
	flight   map[string]*flightCall

	mux *http.ServeMux
}

type flightCall struct {
	done   chan struct{}
	status int
	body   []byte
}

// New returns a Server with the given options. With Options.DataDir it
// opens (creating if needed) the persistent result store and job
// directory, and resumes any persisted unfinished jobs.
func New(opts Options) (*Server, error) {
	s := &Server{
		opts:   opts.withDefaults(),
		flight: make(map[string]*flightCall),
	}
	s.runners.WarmTimeout = s.opts.DefaultTimeout
	s.sim = s.simulate
	if s.opts.simulateWrap != nil {
		s.sim = s.opts.simulateWrap(s.sim)
	}
	s.gate = parallel.NewGate(s.opts.InFlight, s.opts.Queue)
	s.cache = newResultCache(s.opts.CacheEntries)
	s.metrics.start = time.Now()

	jobDir := ""
	if s.opts.DataDir != "" {
		st, err := store.Open(filepath.Join(s.opts.DataDir, "results"))
		if err != nil {
			return nil, fmt.Errorf("serve: opening result store: %w", err)
		}
		s.store = st
		jobDir = filepath.Join(s.opts.DataDir, "jobs")
	}
	exec := s.jobExec
	if s.opts.execWrap != nil {
		exec = s.opts.execWrap(exec)
	}
	engine, err := jobs.New(jobs.Options{
		Dir:     jobDir,
		Slots:   s.opts.JobSlots,
		Queue:   s.opts.JobQueue,
		Resolve: s.jobResolve,
		Exec:    exec,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: starting job engine: %w", err)
	}
	s.engine = engine

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/kernels", s.handleKernels)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/experiment", s.handleExperiment)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux = mux
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the job engine. Running jobs are abandoned exactly as a
// kill would abandon them — their persisted records stay unfinished and
// the next New on the same DataDir resumes them; completed items are
// not lost (they live in the result store).
func (s *Server) Close() {
	s.engine.Close()
}

// simulate executes one resolved run and marshals its response body.
func (s *Server) simulate(ctx context.Context, rr *plan.Run) (int, []byte) {
	timeout := rr.Timeout
	if timeout == 0 {
		timeout = s.opts.DefaultTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var (
		opts    []core.RunOption
		ndjson  bytes.Buffer
		started = time.Now()
	)
	if rr.Probe {
		opts = append(opts, core.WithProbe(probe.New(rr.ProbeInterval, &ndjson)))
	}
	res, err := s.runners.Simulate(ctx, rr, opts...)
	s.metrics.simRuns.Add(1)
	s.metrics.simSeconds.observe(time.Since(started).Seconds())
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.timeouts.Add(1)
		return http.StatusGatewayTimeout, errorBytes(errDeadline(fmt.Sprintf(
			"simulation exceeded its %v deadline (raise timeout_ms or the server -timeout)", timeout)))
	case errors.Is(err, context.Canceled):
		// The client went away; 499 in nginx's vocabulary, nothing
		// useful to send. StatusRequestTimeout keeps it a client error.
		return http.StatusRequestTimeout, errorBytes(errCancelled("request cancelled"))
	case core.IsInfeasible(err):
		s.metrics.clientErrors.Add(1)
		return http.StatusUnprocessableEntity, errorBytes(errInfeasible(err.Error()))
	case err != nil:
		s.metrics.serverErrors.Add(1)
		return http.StatusInternalServerError, errorBytes(errInternal("%s (key %s)", err.Error(), rr.Key))
	}
	resp := api.RunResponse{
		Key:    rr.Key,
		Kernel: rr.Label(),
		Config: rr.ConfigInfo(),
		Occupancy: api.OccupancyInfo{
			CTAs:    res.Occupancy.CTAs,
			Threads: res.Occupancy.Threads,
			Warps:   res.Occupancy.Warps,
			Limiter: res.Occupancy.Limiter.String(),
		},
		Counters: res.Counters,
		IPC:      res.IPC(),
		WarpIPC:  res.Counters.IPC(),
		Energy: api.EnergyInfo{
			MRF: res.Energy.MRF, ORF: res.Energy.ORF, LRF: res.Energy.LRF,
			Shared: res.Energy.Shared, Cache: res.Energy.Cache, Tags: res.Energy.Tags,
			Other: res.Energy.Other, Leak: res.Energy.Leak, DRAM: res.Energy.DRAM,
			Total: res.Energy.Total(),
		},
		ProbeNDJSON: ndjson.String(),
		WarmCycles:  rr.WarmCycles,
	}
	if k := rr.Streams[0].Kernel; len(rr.Streams) == 1 && k.Name == "needle" {
		resp.BF = k.BF
	}
	for i, sr := range res.Streams {
		st := rr.Streams[i]
		counters := sr.Counters // copy: the response keeps a stable pointer
		out := api.StreamResult{
			Kernel: sr.Kernel,
			Occupancy: api.OccupancyInfo{
				CTAs:    sr.Occupancy.CTAs,
				Threads: sr.Occupancy.Threads,
				Warps:   sr.Occupancy.Warps,
				Limiter: sr.Occupancy.Limiter.String(),
			},
			Counters: &counters,
			IPC:      counters.ThreadIPC(),
			WarpIPC:  counters.IPC(),
		}
		if st.Kernel.Name == "needle" {
			out.BF = st.Kernel.BF
		}
		resp.Streams = append(resp.Streams, out)
	}
	return http.StatusOK, marshalBody(resp)
}

// compute settles one resolved run through the result pipeline (see
// cached). It assumes admission is already settled; counted says the
// caller already recorded this lookup in the cache stats.
func (s *Server) compute(ctx context.Context, rr *plan.Run, counted bool) (status int, body []byte, cacheState string) {
	return s.cached(ctx, rr.Key, counted, func() (int, []byte) { return s.sim(ctx, rr) })
}

// cached runs the cache -> store -> coalesce -> produce pipeline for the
// result under key, the one path runs and experiments share. It assumes
// admission is already settled. counted says the caller already
// recorded this lookup in the cache stats (a handler's pre-admission
// check), so the recheck stays quiet. A waiter coalesced onto another
// request's computation gives up when ctx is done. The cacheState
// return is "hit", "stored", "coalesced", or "miss".
func (s *Server) cached(ctx context.Context, key string, counted bool, produce func() (int, []byte)) (status int, body []byte, cacheState string) {
	lookup := s.cache.get
	if counted {
		lookup = s.cache.peek
	}
	if body, ok := lookup(key); ok {
		return http.StatusOK, body, "hit"
	}
	// The persistent store sits under the LRU: a body completed by a
	// previous process (or evicted from the LRU) replays byte-identically
	// and re-enters the LRU. This is the job resume path.
	if s.store != nil {
		if body, ok := s.store.Get(key); ok {
			s.cache.put(key, body)
			return http.StatusOK, body, "stored"
		}
	}
	s.flightMu.Lock()
	if c, ok := s.flight[key]; ok {
		s.flightMu.Unlock()
		select {
		case <-c.done:
			s.metrics.coalesced.Add(1)
			return c.status, c.body, "coalesced"
		case <-ctx.Done():
			return http.StatusRequestTimeout, errorBytes(errCancelled("request cancelled")), "miss"
		}
	}
	c := &flightCall{done: make(chan struct{})}
	s.flight[key] = c
	s.flightMu.Unlock()
	s.settle(key, c, func() (int, []byte) {
		status, body := produce()
		if status == http.StatusOK {
			s.cache.put(key, body)
			if s.store != nil {
				_ = s.store.Put(key, body)
			}
		}
		return status, body
	})
	return c.status, c.body, "miss"
}

// settle runs compute, the one computation of key that c coalesces
// requests onto, and records its outcome in c. However compute ends,
// the key leaves the flight table and c's waiters wake: a wedged entry
// would stall every later request for the key until its own deadline.
// A panic becomes a 500 envelope that names the key, as handleBatch
// reports a panicking item.
func (s *Server) settle(key string, c *flightCall, compute func() (int, []byte)) {
	defer func() {
		if v := recover(); v != nil {
			s.metrics.serverErrors.Add(1)
			c.status, c.body = http.StatusInternalServerError,
				errorBytes(errInternal("panic: %v (key %s)", v, key))
		}
		s.flightMu.Lock()
		delete(s.flight, key)
		s.flightMu.Unlock()
		close(c.done)
	}()
	c.status, c.body = compute()
}

// admit claims a gate slot for the request, translating backpressure
// into 429 + Retry-After. The returned release func is nil when
// admission failed.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) func() {
	err := s.gate.Acquire(r.Context())
	switch {
	case errors.Is(err, parallel.ErrQueueFull):
		s.metrics.rejected.Add(1)
		writeError(w, errOverCapacity(1+s.gate.Waiting(),
			"admission queue full (%d in flight, %d waiting); retry later",
			s.gate.InFlight(), s.gate.Waiting()))
		return nil
	case err != nil:
		writeError(w, errCancelled("request cancelled while queued"))
		return nil
	}
	return s.gate.Release
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.metrics.runRequests.Add(1)
	var req api.RunRequest
	if !decodeStrict(w, r, &req, &s.metrics) {
		return
	}
	rr, err := plan.Resolve(req)
	if err != nil {
		s.metrics.clientErrors.Add(1)
		writeError(w, errBadRequest("%s", err.Error()))
		return
	}
	// A cache hit skips admission entirely: replaying bytes is free.
	if body, ok := s.cache.get(rr.Key); ok {
		writeBody(w, http.StatusOK, body, "hit")
		return
	}
	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()
	status, body, state := s.compute(r.Context(), rr, true)
	writeBody(w, status, body, state)
}

// batchItemBody marshals one batch entry from its settled (status,
// body). Both the synchronous /v1/batch and the job engine's final
// assembly funnel through here, which is what makes an async batch's
// result bytes identical to the synchronous response.
func batchItemBody(status int, body []byte) json.RawMessage {
	if status == http.StatusOK {
		return json.RawMessage(marshalBody(api.BatchItem{Result: rawResponse(body)}))
	}
	var env api.ErrorBody
	_ = json.Unmarshal(body, &env)
	return json.RawMessage(marshalBody(api.BatchItem{Error: env.Error, Status: status}))
}

// assembleBatch builds the final batch body from per-item outcomes, in
// item order.
func assembleBatch(statuses []int, bodies [][]byte) (int, []byte) {
	items := make([]json.RawMessage, len(statuses))
	for i := range statuses {
		items[i] = batchItemBody(statuses[i], bodies[i])
	}
	return http.StatusOK, marshalBody(api.BatchResponse{Results: items})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.batchRequests.Add(1)
	var req api.BatchRequest
	if !decodeStrict(w, r, &req, &s.metrics) {
		return
	}
	resolved, err := plan.ResolveBatch(req)
	if err != nil {
		s.metrics.clientErrors.Add(1)
		writeError(w, errBadRequest("%s", err.Error()))
		return
	}
	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()
	hits, misses := 0, 0
	var mu sync.Mutex
	// Items fan out across the process worker budget; Map keeps results
	// in request order, so the assembled body is worker-count invariant.
	items, err := parallel.Map(len(resolved), func(i int) (json.RawMessage, error) {
		status, body, state := s.compute(r.Context(), resolved[i], false)
		mu.Lock()
		if state == "miss" {
			misses++
		} else {
			hits++
		}
		mu.Unlock()
		return batchItemBody(status, body), nil
	})
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		// Items report their own failures in the body; only a recovered
		// panic fails the batch.
		s.metrics.serverErrors.Add(1)
		writeError(w, errInternal("%v (key %s)", pe, resolved[pe.Index].Key))
		return
	}
	body := marshalBody(api.BatchResponse{Results: items})
	writeBody(w, http.StatusOK, body, fmt.Sprintf("hits=%d misses=%d", hits, misses))
}

// rawResponse re-decodes a cached body into a RunResponse pointer for
// embedding in a batch item. The round trip is deterministic: the body
// was produced by marshalBody and re-marshals to the same bytes.
func rawResponse(body []byte) *api.RunResponse {
	var resp api.RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil
	}
	return &resp
}

// resolvedExperiment is an api.ExperimentRequest after validation, with
// the hashed key its rendered tables cache and persist under.
type resolvedExperiment struct {
	name string
	pol  sched.Policy
	key  string
}

// resolveExperiment validates an experiment request.
func (s *Server) resolveExperiment(req api.ExperimentRequest) (*resolvedExperiment, *api.Error) {
	pol, err := sched.ParsePolicy(req.Scheduler)
	if err != nil {
		return nil, errBadRequest("%s", err.Error())
	}
	known := false
	for _, name := range harness.Experiments {
		if name == req.Name {
			known = true
			break
		}
	}
	if !known {
		return nil, errBadRequest("unknown experiment %q (have %v)", req.Name, harness.Experiments)
	}
	return &resolvedExperiment{
		name: req.Name,
		pol:  pol,
		key:  plan.Key(fmt.Appendf(nil, "experiment\x00%s\x00%s", req.Name, pol)),
	}, nil
}

// computeExperiment settles one experiment through the result pipeline
// (see cached), rendering its tables on a miss. It assumes admission is
// already settled; counted is as for compute.
func (s *Server) computeExperiment(ctx context.Context, er *resolvedExperiment, counted bool) (status int, body []byte, cacheState string) {
	return s.cached(ctx, er.key, counted, func() (int, []byte) {
		// Experiments reuse the run path's Runner memoization keyed by
		// the default machine with the chosen scheduler.
		d := machine.Default()
		d.Timing.Scheduler = string(er.pol)
		rr, err := plan.Resolve(api.RunRequest{Kernel: "needle", Machine: d})
		if err != nil {
			return http.StatusInternalServerError, errorBytes(errInternal("%s", err.Error()))
		}
		started := time.Now()
		t, err := harness.Run(s.runners.Runner(rr), er.name)
		s.metrics.simSeconds.observe(time.Since(started).Seconds())
		if err != nil {
			s.metrics.serverErrors.Add(1)
			return http.StatusInternalServerError, errorBytes(errInternal("%s", err.Error()))
		}
		s.metrics.simRuns.Add(1)
		return http.StatusOK, marshalBody(api.ExperimentResponse{
			Name:      er.name,
			Scheduler: string(er.pol),
			Text:      t.String(),
			CSV:       t.CSV(),
			Markdown:  t.Markdown(),
		})
	})
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	s.metrics.experimentRequests.Add(1)
	var req api.ExperimentRequest
	if !decodeStrict(w, r, &req, &s.metrics) {
		return
	}
	er, aerr := s.resolveExperiment(req)
	if aerr != nil {
		s.metrics.clientErrors.Add(1)
		writeError(w, aerr)
		return
	}
	if body, ok := s.cache.get(er.key); ok {
		writeBody(w, http.StatusOK, body, "hit")
		return
	}
	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()
	status, body, state := s.computeExperiment(r.Context(), er, true)
	writeBody(w, status, body, state)
}

func (s *Server) handleKernels(w http.ResponseWriter, _ *http.Request) {
	var out []api.KernelInfo
	for _, k := range workloads.All() {
		out = append(out, api.KernelInfo{
			Name:              k.Name,
			Suite:             k.Suite,
			Category:          k.Category.String(),
			Description:       k.Description,
			RegsNeeded:        k.RegsNeeded,
			ThreadsPerCTA:     k.ThreadsPerCTA,
			SharedBytesPerCTA: k.SharedBytesPerCTA,
			GridCTAs:          k.GridCTAs,
			BF:                k.BF,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	hits, misses, entries, bytes := s.cache.stats()
	snap := api.Snapshot{
		UptimeSeconds:      time.Since(s.metrics.start).Seconds(),
		RunRequests:        s.metrics.runRequests.Load(),
		BatchRequests:      s.metrics.batchRequests.Load(),
		ExperimentRequests: s.metrics.experimentRequests.Load(),
		JobRequests:        s.metrics.jobRequests.Load(),
		Rejected:           s.metrics.rejected.Load(),
		ClientErrors:       s.metrics.clientErrors.Load(),
		ServerErrors:       s.metrics.serverErrors.Load(),
		Timeouts:           s.metrics.timeouts.Load(),
		CacheHits:          hits,
		CacheMisses:        misses,
		CacheEntries:       entries,
		CacheBytes:         bytes,
		Coalesced:          s.metrics.coalesced.Load(),
		Jobs:               s.engine.Stats(),
		QueueDepth:         s.gate.Waiting(),
		InFlight:           s.gate.InFlight(),
		Workers:            s.gate.Capacity(),
		SimRuns:            s.metrics.simRuns.Load(),
		SimSeconds:         s.metrics.simSeconds.snapshot(),
		TraceCache:         workloads.TraceCacheSnapshot(),
	}
	if s.store != nil {
		snap.Store = s.store.Stats()
	}
	if total := hits + misses; total > 0 {
		snap.CacheHitRatio = float64(hits) / float64(total)
	}
	snap.TraceCacheHitRatio = snap.TraceCache.HitRatio()
	writeJSON(w, http.StatusOK, snap)
}

// decodeStrict decodes a JSON request body of at most maxBody bytes,
// rejecting unknown fields so misspelled parameters fail loudly instead
// of silently simulating the wrong thing.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any, m *metrics) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		m.clientErrors.Add(1)
		writeError(w, errBadRequest("bad request body: %v", err))
		return false
	}
	return true
}

// marshalBody marshals a response body deterministically (compact JSON
// plus a trailing newline). Marshal errors cannot occur for the
// response types in this package.
func marshalBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(api.ErrorBody{Error: &api.Error{
			Code:    api.CodeInternal,
			Message: "internal: marshal: " + err.Error(),
		}})
	}
	return append(b, '\n')
}

// writeBody writes a prepared body with the cache-state header.
func writeBody(w http.ResponseWriter, status int, body []byte, cacheState string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheState)
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeJSON marshals and writes an ad-hoc (uncached) response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(marshalBody(v))
}
