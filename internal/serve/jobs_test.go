package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/internal/jobs"
)

// pollJob polls GET /v1/jobs/{id} until the job is terminal.
func pollJob(t *testing.T, ts *httptest.Server, id string) api.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := do(t, ts, http.MethodGet, "/v1/jobs/"+id, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s: %d: %s", id, resp.StatusCode, body)
		}
		var j api.Job
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		if j.Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return api.Job{}
}

func submitJob(t *testing.T, ts *httptest.Server, body string) api.Job {
	t.Helper()
	resp, b := do(t, ts, http.MethodPost, "/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d: %s", resp.StatusCode, b)
	}
	var j api.Job
	if err := json.Unmarshal(b, &j); err != nil {
		t.Fatal(err)
	}
	if j.ID == "" || j.State != api.JobQueued {
		t.Fatalf("submit view = %+v", j)
	}
	return j
}

const lifecycleBatch = `{"runs":[
	{"kernel":"vectoradd"},
	{"kernel":"vectoradd","seed":7},
	{"kernel":"sto"}
]}`

// TestJobLifecycle is the submit -> poll -> result walk: the job's
// final bytes must be identical to the synchronous /v1/batch response
// for the same request. Polling is the one progress channel; there is
// no event stream.
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{DataDir: t.TempDir()})

	respSync, syncBody := do(t, ts, http.MethodPost, "/v1/batch", lifecycleBatch)
	if respSync.StatusCode != http.StatusOK {
		t.Fatalf("sync batch: %d: %s", respSync.StatusCode, syncBody)
	}

	j := submitJob(t, ts, `{"batch":`+lifecycleBatch+`}`)
	if j.Type != "batch" || j.Progress.Total != 3 {
		t.Fatalf("submit view = %+v", j)
	}
	done := pollJob(t, ts, j.ID)
	if done.State != api.JobDone || done.Progress.Done != 3 {
		t.Fatalf("terminal view = %+v", done)
	}
	// All three items were already computed synchronously: the job must
	// have served them from cache, not re-simulated.
	if done.Progress.CacheHits+done.Progress.StoreHits != 3 {
		t.Errorf("progress = %+v, want 3 cache/store hits", done.Progress)
	}

	// Result bytes are identical to the synchronous response.
	respJob, jobBody := do(t, ts, http.MethodGet, "/v1/jobs/"+j.ID+"/result", "")
	if respJob.StatusCode != http.StatusOK {
		t.Fatalf("job result: %d: %s", respJob.StatusCode, jobBody)
	}
	if got := respJob.Header.Get("X-Cache"); got != "job" {
		t.Errorf("result X-Cache = %q, want job", got)
	}
	if !bytes.Equal(jobBody, syncBody) {
		t.Errorf("job result differs from sync batch:\njob:  %s\nsync: %s", jobBody, syncBody)
	}

	if resp, body := do(t, ts, http.MethodGet, "/v1/jobs/"+j.ID+"/events", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/jobs/{id}/events: %d: %s, want 404", resp.StatusCode, body)
	}
}

// TestJobProbedRun: a probed run submitted as a job returns its probe
// NDJSON in the result body, byte-identical to /v1/run of the same
// request on a fresh server.
func TestJobProbedRun(t *testing.T) {
	const run = `{"kernel":"vectoradd","probe":true}`
	_, tsJob := newTestServer(t, Options{})
	_, tsSync := newTestServer(t, Options{})

	j := submitJob(t, tsJob, `{"run":`+run+`}`)
	if done := pollJob(t, tsJob, j.ID); done.State != api.JobDone {
		t.Fatalf("terminal view = %+v", done)
	}
	respJob, jobBody := do(t, tsJob, http.MethodGet, "/v1/jobs/"+j.ID+"/result", "")
	if respJob.StatusCode != http.StatusOK {
		t.Fatalf("job result: %d: %s", respJob.StatusCode, jobBody)
	}
	respSync, syncBody := do(t, tsSync, http.MethodPost, "/v1/run", run)
	if respSync.StatusCode != http.StatusOK {
		t.Fatalf("sync run: %d: %s", respSync.StatusCode, syncBody)
	}
	if !bytes.Equal(jobBody, syncBody) {
		t.Errorf("job result differs from sync run:\njob:  %.200s\nsync: %.200s", jobBody, syncBody)
	}
	var rr api.RunResponse
	if err := json.Unmarshal(jobBody, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.ProbeNDJSON == "" {
		t.Error("probed job result has empty probe_ndjson")
	}
}

// TestJobSweepUnboundedRejected: a sweep whose range never ends or asks
// for more points than the service accepts is the submitter's 400, at
// once, not a job.
func TestJobSweepUnboundedRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, sweep := range []string{
		fmt.Sprintf(`{"kernel":"vectoradd","resource":"cache","from":1,"to":%d,"step":"2x"}`, math.MaxInt),
		fmt.Sprintf(`{"kernel":"vectoradd","resource":"cache","from":%d,"to":%d,"step":"3"}`, math.MaxInt-2, math.MaxInt),
		`{"kernel":"vectoradd","resource":"cache","from":1,"to":1000000000,"step":"1"}`,
	} {
		resp, body := do(t, ts, http.MethodPost, "/v1/jobs", `{"sweep":`+sweep+`}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("sweep %s: %d: %s, want 400", sweep, resp.StatusCode, body)
		}
		var env api.ErrorBody
		if err := json.Unmarshal(body, &env); err != nil || env.Error == nil || env.Error.Code != api.CodeBadRequest {
			t.Errorf("sweep %s: body %s, want a bad_request envelope", sweep, body)
		}
	}
}

// TestJobSweep pins the server-side sweep expansion: a sweep submits as
// a batch-shaped job with one item per point and a descriptive note.
func TestJobSweep(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	j := submitJob(t, ts, `{"sweep":{"kernel":"vectoradd","resource":"cache","from":32,"to":64,"step":"2x"}}`)
	if j.Type != "sweep" || j.Progress.Total != 2 {
		t.Fatalf("submit view = %+v", j)
	}
	if !strings.Contains(j.Note, "sweep vectoradd cache 32..64") {
		t.Errorf("note = %q", j.Note)
	}
	done := pollJob(t, ts, j.ID)
	if done.State != api.JobDone {
		t.Fatalf("terminal view = %+v", done)
	}
	resp, body := do(t, ts, http.MethodGet, "/v1/jobs/"+j.ID+"/result", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d: %s", resp.StatusCode, body)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	items, err := br.Items()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("sweep result has %d items, want 2", len(items))
	}
	want := []int{32 << 10, 64 << 10}
	for i, it := range items {
		if it.Error != nil || it.Result == nil {
			t.Fatalf("item %d = %+v", i, it)
		}
		if it.Result.Config.CacheBytes != want[i] {
			t.Errorf("item %d cache_bytes = %d, want %d", i, it.Result.Config.CacheBytes, want[i])
		}
	}
}

// TestJobSubmitValidation pins the 400 contract: a bad spec is the
// submitter's error envelope, never a failed job.
func TestJobSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		body string
		want string // substring of the error message
	}{
		{`{}`, "exactly one"},
		{`{"run":{"kernel":"vectoradd"},"batch":{"runs":[]}}`, "exactly one"},
		{`{"run":{"kernel":"nope"}}`, "run:"},
		{`{"sweep":{"kernel":"vectoradd","resource":"rf","from":32,"to":64,"step":"2x","warm_cycles":100}}`, "warm_cycles"},
		{`{"sweep":{"kernel":"vectoradd","resource":"voltage","from":1,"to":2,"step":"1"}}`, "unknown resource"},
		{`{"unknown_field":1}`, "bad request body"},
	}
	for _, c := range cases {
		resp, body := do(t, ts, http.MethodPost, "/v1/jobs", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status = %d, want 400", c.body, resp.StatusCode)
			continue
		}
		var env api.ErrorBody
		if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
			t.Errorf("POST %s: body %s is not an error envelope", c.body, body)
			continue
		}
		if env.Error.Code != api.CodeBadRequest || !strings.Contains(env.Error.Message, c.want) {
			t.Errorf("POST %s: error = %+v, want code bad_request containing %q", c.body, env.Error, c.want)
		}
	}
	resp, body := do(t, ts, http.MethodGet, "/v1/jobs/j999", "")
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), api.CodeNotFound) {
		t.Errorf("GET unknown job: %d %s, want 404 envelope", resp.StatusCode, body)
	}
}

// TestJobResultNotReady pins the 409 not_ready envelope while a job is
// still executing.
func TestJobResultNotReady(t *testing.T) {
	block := make(chan struct{})
	opts := Options{execWrap: func(inner jobs.Exec) jobs.Exec {
		return func(ctx context.Context, it jobs.Item, ic *jobs.ItemContext) (int, []byte, string) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return inner(ctx, it, ic)
		}
	}}
	_, ts := newTestServer(t, opts)
	defer close(block)
	j := submitJob(t, ts, `{"run":{"kernel":"vectoradd"}}`)
	resp, body := do(t, ts, http.MethodGet, "/v1/jobs/"+j.ID+"/result", "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result while running: %d, want 409", resp.StatusCode)
	}
	var env api.ErrorBody
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil || env.Error.Code != api.CodeNotReady {
		t.Fatalf("body = %s, want a not_ready envelope", body)
	}
}

// TestJobCancel pins DELETE /v1/jobs/{id}: the job settles cancelled
// with the cancelled envelope code.
func TestJobCancel(t *testing.T) {
	started := make(chan struct{}, 1)
	opts := Options{execWrap: func(inner jobs.Exec) jobs.Exec {
		return func(ctx context.Context, it jobs.Item, ic *jobs.ItemContext) (int, []byte, string) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return http.StatusRequestTimeout, errorBytes(errCancelled("cancelled")), "miss"
		}
	}}
	_, ts := newTestServer(t, opts)
	j := submitJob(t, ts, `{"run":{"kernel":"vectoradd"}}`)
	<-started
	resp, body := do(t, ts, http.MethodDelete, "/v1/jobs/"+j.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d: %s", resp.StatusCode, body)
	}
	done := pollJob(t, ts, j.ID)
	if done.State != api.JobCancelled || done.Error == nil || done.Error.Code != api.CodeCancelled {
		t.Fatalf("terminal view = %+v, want cancelled", done)
	}
}

// TestJobKillRestartResume is the durability tentpole end to end: a
// server killed mid-sweep leaves its record and completed items on
// disk; a new server on the same data directory resumes the job, skips
// every stored item, and produces a final result byte-identical to the
// synchronous batch.
func TestJobKillRestartResume(t *testing.T) {
	dir := t.TempDir()
	const sweep = `{"sweep":{"kernel":"vectoradd","resource":"cache","from":32,"to":256,"step":"2x"}}`

	// Phase 1: a server whose job executor settles one item (whichever
	// arrives first) and stalls every other until the "kill".
	firstDone := make(chan struct{})
	var claimed atomic.Bool
	s1, err := New(Options{
		DataDir: dir,
		execWrap: func(inner jobs.Exec) jobs.Exec {
			return func(ctx context.Context, it jobs.Item, ic *jobs.ItemContext) (int, []byte, string) {
				if !claimed.CompareAndSwap(false, true) {
					<-ctx.Done()
					return http.StatusRequestTimeout, errorBytes(errCancelled("killed")), "miss"
				}
				status, body, cache := inner(ctx, it, ic)
				close(firstDone)
				return status, body, cache
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	j := submitJob(t, ts1, sweep)
	if j.Progress.Total != 4 {
		t.Fatalf("submit view = %+v, want 4 points", j)
	}
	select {
	case <-firstDone:
	case <-time.After(60 * time.Second):
		t.Fatal("first item never settled")
	}
	// The kill: abandon the job without terminal state, exactly like a
	// process death (Server.Close persists nothing extra).
	ts1.Close()
	s1.Close()

	// Phase 2: a fresh server on the same data directory.
	_, ts2 := newTestServer(t, Options{DataDir: dir})
	done := pollJob(t, ts2, j.ID)
	if done.State != api.JobDone {
		t.Fatalf("resumed job = %+v, want done", done)
	}
	if done.Resumes < 1 {
		t.Errorf("resumes = %d, want >= 1", done.Resumes)
	}
	// The item completed before the kill must replay from the store, not
	// re-simulate.
	if done.Progress.StoreHits < 1 {
		t.Errorf("progress = %+v, want >= 1 store hit", done.Progress)
	}
	m := snapshot(t, ts2)
	if m.Jobs.Resumed != 1 {
		t.Errorf("metrics jobs = %+v, want resumed 1", m.Jobs)
	}
	if m.Store.Hits < 1 || m.Store.Entries < 4 {
		t.Errorf("metrics store = %+v, want >= 1 hit and >= 4 entries", m.Store)
	}

	// Byte identity: the resumed job's result equals the synchronous
	// batch for the expanded sweep, computed on the restarted server.
	resp, jobBody := do(t, ts2, http.MethodGet, "/v1/jobs/"+j.ID+"/result", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resumed result: %d: %s", resp.StatusCode, jobBody)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(jobBody, &br); err != nil {
		t.Fatal(err)
	}
	if items, err := br.Items(); err != nil || len(items) != 4 {
		t.Fatalf("resumed result has %d items (%v), want 4", len(items), err)
	}
	// Submitting the identical sweep as a new job on the restarted
	// server must produce identical bytes, all served without
	// simulating.
	j2 := submitJob(t, ts2, sweep)
	pollJob(t, ts2, j2.ID)
	resp2, body2 := do(t, ts2, http.MethodGet, "/v1/jobs/"+j2.ID+"/result", "")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("replay result: %d: %s", resp2.StatusCode, body2)
	}
	if !bytes.Equal(jobBody, body2) {
		t.Errorf("replayed sweep differs from resumed sweep:\n%s\nvs\n%s", body2, jobBody)
	}
}

// TestStoreReplayAcrossServers pins the /v1/run "stored" path: a second
// server sharing the data directory answers from the persistent store
// with byte-identical bytes and X-Cache: stored.
func TestStoreReplayAcrossServers(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Options{DataDir: dir})
	const req = `{"kernel":"sto"}`
	resp1, body1 := do(t, ts1, http.MethodPost, "/v1/run", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d: %s", resp1.StatusCode, body1)
	}
	ts1.Close()
	s1.Close()

	_, ts2 := newTestServer(t, Options{DataDir: dir})
	resp2, body2 := do(t, ts2, http.MethodPost, "/v1/run", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("replayed run: %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "stored" {
		t.Errorf("X-Cache = %q, want stored", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("stored replay differs:\n%s\nvs\n%s", body2, body1)
	}
	// Third request: the store replay re-entered the in-memory cache.
	resp3, _ := do(t, ts2, http.MethodPost, "/v1/run", req)
	if got := resp3.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("X-Cache after replay = %q, want hit", got)
	}
	if m := snapshot(t, ts2); m.SimRuns != 0 {
		t.Errorf("replayed server simulated %d times, want 0", m.SimRuns)
	}
}

// TestJobBatchItemBound: a batch job takes up to api.MaxRuns runs, and
// a larger one is the submitter's 400 at once, not a job. The items'
// execution is stubbed: the bound is on submit.
func TestJobBatchItemBound(t *testing.T) {
	opts := Options{execWrap: func(inner jobs.Exec) jobs.Exec {
		return func(ctx context.Context, it jobs.Item, ic *jobs.ItemContext) (int, []byte, string) {
			return http.StatusOK, []byte(`{}`), "miss"
		}
	}}
	_, ts := newTestServer(t, opts)
	j := submitJob(t, ts, `{"batch":`+batchOf(api.MaxRuns, `{"kernel":"vectoradd"}`)+`}`)
	if j.Progress.Total != api.MaxRuns {
		t.Fatalf("batch job of %d runs has %d items", api.MaxRuns, j.Progress.Total)
	}
	if done := pollJob(t, ts, j.ID); done.State != api.JobDone {
		t.Fatalf("batch job of %d runs ended %s", api.MaxRuns, done.State)
	}
	over := strings.TrimSuffix(batchOf(api.MaxRuns, `{"kernel":"vectoradd"}`), "]}") + `,{"kernel":"nope"}]}`
	resp, body := do(t, ts, http.MethodPost, "/v1/jobs", `{"batch":`+over+`}`)
	var env api.ErrorBody
	if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &env) != nil || env.Error == nil ||
		env.Error.Code != api.CodeBadRequest || !strings.Contains(env.Error.Message, "limit") {
		t.Fatalf("batch job of %d runs: %d: %s, want a bad_request envelope naming the limit", api.MaxRuns+1, resp.StatusCode, body)
	}
}
