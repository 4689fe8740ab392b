package serve

// The /v1/jobs handlers and the two callbacks that drive the generic
// job engine (internal/jobs): jobResolve turns a raw JobRequest body
// into an executable plan, jobExec settles one item through the same
// cache -> store -> coalesce -> simulate pipeline the synchronous
// endpoints use. Because both sides share compute() and
// batchItemBody(), a job's final result is byte-identical to the
// equivalent synchronous response — and a restarted job finds its
// completed items in the persistent store instead of re-simulating.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/api"
	"repro/internal/campaign"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/occupancy"
	"repro/internal/workloads"
)

// maxJobBody bounds a job submission body (a 10k-point sweep is ~2MB).
const maxJobBody = 8 << 20

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.metrics.jobRequests.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxJobBody))
	if err != nil {
		s.metrics.clientErrors.Add(1)
		writeError(w, errBadRequest("reading request body: %v", err))
		return
	}
	job, err := s.engine.Submit(body)
	if err != nil {
		var ae *api.Error
		switch {
		case errors.As(err, &ae):
			s.metrics.clientErrors.Add(1)
			writeError(w, ae)
		case errors.Is(err, jobs.ErrStorage):
			s.metrics.serverErrors.Add(1)
			writeError(w, errInternal("%s", err.Error()))
		default:
			s.metrics.clientErrors.Add(1)
			writeError(w, errBadRequest("%s", err.Error()))
		}
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.engine.List())
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.engine.Get(id)
	if !ok {
		writeError(w, errNotFound("no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.engine.Cancel(id)
	if !ok {
		writeError(w, errNotFound("no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	status, body, err := s.engine.Result(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, errNotFound("no job %q", id))
	case errors.Is(err, jobs.ErrNotReady):
		writeError(w, errNotReady(fmt.Sprintf(
			"job %q has not finished; poll GET /v1/jobs/%s", id, id)))
	case err != nil:
		writeError(w, errInternal("%s", err.Error()))
	default:
		writeBody(w, status, body, "job")
	}
}

// handleJobEvents streams a job's event log as server-sent events:
// replayed history first, then live events, ending after the terminal
// "done" event (or when the client goes away).
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sub, ok := s.engine.Subscribe(id)
	if !ok {
		writeError(w, errNotFound("no job %q", id))
		return
	}
	defer sub.Close()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errInternal("streaming unsupported by this connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	writeEvent := func(ev jobs.Event) {
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, ev.Data)
		fl.Flush()
	}
	for _, ev := range sub.Replay {
		writeEvent(ev)
	}
	for {
		select {
		case ev, open := <-sub.C:
			if !open {
				return
			}
			writeEvent(ev)
		case <-r.Context().Done():
			return
		}
	}
}

// jobResolve is the engine's Resolve callback: raw body -> Plan. The
// errors it returns surface as the submitter's 400 (or, on restart, as
// a failed job), so they are *api.Error values.
func (s *Server) jobResolve(request []byte) (jobs.Plan, error) {
	var req api.JobRequest
	dec := json.NewDecoder(bytes.NewReader(request))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return jobs.Plan{}, errBadRequest("bad request body: %v", err)
	}
	set := 0
	for _, p := range []bool{req.Run != nil, req.Batch != nil, req.Sweep != nil, req.Experiment != nil, req.Compare != nil} {
		if p {
			set++
		}
	}
	if set != 1 {
		return jobs.Plan{}, errBadRequest(
			"a job must set exactly one of \"run\", \"batch\", \"sweep\", \"experiment\", \"compare\" (got %d)", set)
	}
	switch {
	case req.Run != nil:
		rr, err := s.resolve(*req.Run)
		if err != nil {
			return jobs.Plan{}, errBadRequest("run: %v", err)
		}
		return jobs.Plan{
			Type:     "run",
			Note:     "run " + rr.label(),
			Items:    runItems([]*resolvedRun{rr}),
			Assemble: assembleSingle,
		}, nil
	case req.Batch != nil:
		rrs, aerr := s.resolveBatch(*req.Batch)
		if aerr != nil {
			return jobs.Plan{}, aerr
		}
		return jobs.Plan{
			Type:     "batch",
			Note:     fmt.Sprintf("batch of %d runs", len(rrs)),
			Items:    runItems(rrs),
			Assemble: assembleBatch,
		}, nil
	case req.Sweep != nil:
		breq, note, aerr := s.expandSweep(*req.Sweep)
		if aerr != nil {
			return jobs.Plan{}, aerr
		}
		rrs, rerr := s.resolveBatch(breq)
		if rerr != nil {
			return jobs.Plan{}, rerr
		}
		return jobs.Plan{
			Type:     "sweep",
			Note:     note,
			Items:    runItems(rrs),
			Assemble: assembleBatch,
		}, nil
	case req.Compare != nil:
		// A compare job is its campaign's compiled run matrix pushed
		// through the batch path, so its result bytes are byte-identical
		// to POST /v1/batch of those runs.
		c, err := campaign.New(*req.Compare)
		if err != nil {
			return jobs.Plan{}, errBadRequest("compare: %v", err)
		}
		rrs, rerr := s.resolveBatch(api.BatchRequest{Runs: c.Runs})
		if rerr != nil {
			return jobs.Plan{}, rerr
		}
		return jobs.Plan{
			Type:     "compare",
			Note:     c.Note(),
			Items:    runItems(rrs),
			Assemble: assembleBatch,
		}, nil
	default:
		er, aerr := s.resolveExperiment(*req.Experiment)
		if aerr != nil {
			return jobs.Plan{}, aerr
		}
		return jobs.Plan{
			Type:     "experiment",
			Note:     "experiment " + er.name,
			Items:    []jobs.Item{{Index: 0, Key: er.key, Payload: er}},
			Assemble: assembleSingle,
		}, nil
	}
}

// runItems wraps resolved runs as engine items.
func runItems(rrs []*resolvedRun) []jobs.Item {
	items := make([]jobs.Item, len(rrs))
	for i, rr := range rrs {
		items[i] = jobs.Item{Index: i, Key: rr.key, Probe: rr.probe, Payload: rr}
	}
	return items
}

// assembleSingle is the single-item plan assembly: the job's final
// result IS the item's response.
func assembleSingle(statuses []int, bodies [][]byte) (int, []byte) {
	if len(statuses) != 1 {
		return http.StatusInternalServerError, errorBytes(errInternal("single-item job settled %d items", len(statuses)))
	}
	return statuses[0], bodies[0]
}

// jobExec is the engine's Exec callback: it settles one item through
// the shared pipeline, streaming probe lines and warm-prefix notes back
// through the item context.
func (s *Server) jobExec(ctx context.Context, it jobs.Item, ic *jobs.ItemContext) (int, []byte, string) {
	switch p := it.Payload.(type) {
	case *resolvedRun:
		if p.probe {
			p.probeSink = &lineWriter{emit: ic.Probe}
		}
		if p.warm != nil {
			ic.Note(fmt.Sprintf("warm@%d %s", p.warmCycles, p.label()))
			defer ic.Note("")
		}
		return s.compute(ctx, p, false)
	case *resolvedExperiment:
		return s.computeExperiment(p)
	default:
		return http.StatusInternalServerError, errorBytes(errInternal("unknown job item payload %T", it.Payload)), "miss"
	}
}

// sweepCapacityAxes and sweepParamAxes are the legal SweepRequest
// resources; parameter axes are divergable across a snapshot and may
// share a warm prefix, capacity axes define the warm-up history and
// may not (the same split cmd/sweep enforces).
var (
	sweepCapacityAxes = map[string]bool{"rf": true, "shared": true, "cache": true}
	sweepParamAxes    = map[string]bool{"mshr": true, "dramlat": true, "drambw": true}
)

// expandSweep turns a SweepRequest into the equivalent BatchRequest —
// one run per point, the swept field overwritten on the base machine —
// plus a human-readable note.
func (s *Server) expandSweep(req api.SweepRequest) (api.BatchRequest, string, *api.Error) {
	if req.Kernel == "" {
		return api.BatchRequest{}, "", errBadRequest("sweep: missing \"kernel\"")
	}
	k, err := workloadForSweep(req)
	if err != nil {
		return api.BatchRequest{}, "", errBadRequest("sweep: %v", err)
	}
	isParam := sweepParamAxes[req.Resource]
	if !isParam && !sweepCapacityAxes[req.Resource] {
		return api.BatchRequest{}, "", errBadRequest(
			"sweep: unknown resource %q (want rf | shared | cache | mshr | dramlat | drambw)", req.Resource)
	}
	if req.WarmCycles != 0 && !isParam {
		return api.BatchRequest{}, "", errBadRequest(
			"sweep: warm_cycles needs a parameter resource (mshr | dramlat | drambw); capacities define the warm-up history and cannot be forked")
	}
	values, err := req.Values()
	if err != nil {
		return api.BatchRequest{}, "", errBadRequest("sweep: %v", err)
	}
	base := req.Machine
	if base.RFKB == 0 && base.SharedKB == 0 && base.CacheKB == 0 {
		// An entirely unspecified split takes the sweep baseline —
		// full-occupancy RF, unbounded shared, baseline cache — exactly
		// cmd/sweep's local default, so only the swept axis constrains
		// the kernel.
		base.RFKB = kbCeil(occupancy.FullOccupancyRFBytes(k.RegsNeeded))
		base.SharedKB = kbCeil(core.UnboundedShared(k))
		base.CacheKB = config.BaselineCacheBytes >> 10
	}
	runs := make([]api.RunRequest, len(values))
	for i, v := range values {
		d := base
		switch req.Resource {
		case "rf":
			d.RFKB = v
		case "shared":
			d.SharedKB = v
		case "cache":
			d.CacheKB = v
		case "mshr":
			d.Timing.MaxMSHRs = v
		case "dramlat":
			d.Timing.DRAMLatency = int64(v)
		case "drambw":
			d.Timing.DRAMBytesPerCycle = v
		}
		runs[i] = api.RunRequest{
			Kernel:        req.Kernel,
			BF:            req.BF,
			Machine:       d,
			RegsPerThread: req.RegsPerThread,
			Seed:          req.Seed,
			TimeoutMS:     req.TimeoutMS,
		}
	}
	note := fmt.Sprintf("sweep %s %s %d..%d step %s (%d points)",
		k.Name, req.Resource, req.From, req.To, req.Step, len(values))
	return api.BatchRequest{Runs: runs, WarmCycles: req.WarmCycles}, note, nil
}

// workloadForSweep resolves the sweep's kernel (for baseline sizing).
func workloadForSweep(req api.SweepRequest) (*workloads.Kernel, error) {
	if req.Kernel == "needle" && req.BF != 0 {
		return workloads.NeedleKernel(req.BF), nil
	}
	return workloads.ByName(req.Kernel)
}

// kbCeil converts bytes to whole KB, rounding up.
func kbCeil(b int) int { return (b + 1023) >> 10 }

// lineWriter splits a probe's NDJSON byte stream into lines and hands
// each complete line to emit — the bridge from the probe's io.Writer
// contract to the job engine's per-line probe events.
type lineWriter struct {
	emit func([]byte)
	buf  []byte
}

func (lw *lineWriter) Write(p []byte) (int, error) {
	lw.buf = append(lw.buf, p...)
	for {
		i := bytes.IndexByte(lw.buf, '\n')
		if i < 0 {
			break
		}
		lw.emit(lw.buf[:i+1])
		lw.buf = lw.buf[i+1:]
	}
	return len(p), nil
}
