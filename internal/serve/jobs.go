package serve

// The /v1/jobs handlers and the two callbacks that drive the generic
// job engine (internal/jobs): jobResolve turns a raw JobRequest body
// into an executable plan (resolving runs through internal/plan), jobExec settles one item through the same
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
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/plan"
)

// maxBody bounds every request body (a 10k-point sweep job is ~2MB).
const maxBody = 8 << 20

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.metrics.jobRequests.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
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
		rr, err := plan.Resolve(*req.Run)
		if err != nil {
			return jobs.Plan{}, errBadRequest("run: %v", err)
		}
		return jobs.Plan{
			Type:     "run",
			Note:     "run " + rr.Label(),
			Items:    runItems([]*plan.Run{rr}),
			Assemble: assembleSingle,
		}, nil
	case req.Batch != nil:
		rrs, err := plan.ResolveBatch(*req.Batch)
		if err != nil {
			return jobs.Plan{}, errBadRequest("%s", err.Error())
		}
		return jobs.Plan{
			Type:     "batch",
			Note:     fmt.Sprintf("batch of %d runs", len(rrs)),
			Items:    runItems(rrs),
			Assemble: assembleBatch,
		}, nil
	case req.Sweep != nil:
		breq, note, err := plan.ExpandSweep(*req.Sweep)
		if err != nil {
			return jobs.Plan{}, errBadRequest("%s", err.Error())
		}
		rrs, err := plan.ResolveBatch(breq)
		if err != nil {
			return jobs.Plan{}, errBadRequest("%s", err.Error())
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
		// to POST /v1/batch of those runs. A cell whose §4.5 allocation
		// fails settles as an infeasible item, as campaign.RunCells
		// settles it locally, where /v1/batch refuses the whole batch.
		c, err := campaign.New(*req.Compare)
		if err != nil {
			return jobs.Plan{}, errBadRequest("compare: %v", err)
		}
		if len(c.Runs) > api.MaxRuns {
			return jobs.Plan{}, errBadRequest("compare: %d cells exceed the limit of %d runs", len(c.Runs), api.MaxRuns)
		}
		items := make([]jobs.Item, len(c.Runs))
		for i, run := range c.Runs {
			rr, err := plan.Resolve(run)
			switch {
			case core.IsInfeasible(err):
				items[i] = jobs.Item{Payload: errInfeasible(err.Error())}
			case err != nil:
				return jobs.Plan{}, errBadRequest("runs[%d]: %v", i, err)
			default:
				items[i] = jobs.Item{Key: rr.Key, Payload: rr}
			}
		}
		return jobs.Plan{
			Type:     "compare",
			Note:     c.Note(),
			Items:    items,
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
			Items:    []jobs.Item{{Key: er.key, Payload: er}},
			Assemble: assembleSingle,
		}, nil
	}
}

// runItems wraps resolved runs as engine items.
func runItems(rrs []*plan.Run) []jobs.Item {
	items := make([]jobs.Item, len(rrs))
	for i, rr := range rrs {
		items[i] = jobs.Item{Key: rr.Key, Payload: rr}
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
// the shared pipeline, reporting a warm prefix as the job's current
// activity. A probed item's NDJSON comes back in its result body.
func (s *Server) jobExec(ctx context.Context, it jobs.Item, ic *jobs.ItemContext) (int, []byte, string) {
	switch p := it.Payload.(type) {
	case *plan.Run:
		if p.WarmCycles > 0 {
			ic.Note(fmt.Sprintf("warm@%d %s", p.WarmCycles, p.Label()))
			defer ic.Note("")
		}
		return s.compute(ctx, p, false)
	case *resolvedExperiment:
		return s.computeExperiment(p)
	case *api.Error:
		return p.HTTPStatus, errorBytes(p), "miss"
	default:
		return http.StatusInternalServerError, errorBytes(errInternal("unknown job item payload %T", it.Payload)), "miss"
	}
}
