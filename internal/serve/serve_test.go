package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/api"
	"repro/internal/parallel"
	"repro/internal/plan"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(s.Close)
	t.Cleanup(ts.Close)
	return s, ts
}

// do issues one request and returns the response plus its full body.
func do(t *testing.T, ts *httptest.Server, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func snapshot(t *testing.T, ts *httptest.Server) api.Snapshot {
	t.Helper()
	resp, body := do(t, ts, http.MethodGet, "/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	var s api.Snapshot
	if err := json.Unmarshal(body, &s); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	return s
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := do(t, ts, http.MethodGet, "/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"ok"`) {
		t.Errorf("body = %s", body)
	}
}

func TestKernelsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := do(t, ts, http.MethodGet, "/v1/kernels", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var ks []api.KernelInfo
	if err := json.Unmarshal(body, &ks); err != nil {
		t.Fatal(err)
	}
	if len(ks) < 20 {
		t.Errorf("registry lists %d kernels, want the full Table 1 set", len(ks))
	}
	names := map[string]bool{}
	for _, k := range ks {
		names[k.Name] = true
		if k.RegsNeeded <= 0 || k.ThreadsPerCTA <= 0 {
			t.Errorf("kernel %s has empty requirements", k.Name)
		}
	}
	if !names["needle"] || !names["vectoradd"] {
		t.Errorf("registry missing expected kernels: %v", names)
	}
}

// TestRunCacheHit pins the core caching contract: the second identical
// request is served from cache with a byte-identical body, increments
// the hit counter, and simulates nothing new.
func TestRunCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	const req = `{"kernel":"vectoradd"}`

	resp1, body1 := do(t, ts, http.MethodPost, "/v1/run", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}
	m1 := snapshot(t, ts)
	if m1.SimRuns != 1 {
		t.Fatalf("sim_runs after first POST = %d, want 1", m1.SimRuns)
	}

	resp2, body2 := do(t, ts, http.MethodPost, "/v1/run", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST: %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cached response is not byte-identical to the computed one")
	}
	m2 := snapshot(t, ts)
	if m2.SimRuns != 1 {
		t.Errorf("sim_runs after cache hit = %d, want still 1", m2.SimRuns)
	}
	if m2.CacheHits != m1.CacheHits+1 {
		t.Errorf("cache_hits = %d, want %d", m2.CacheHits, m1.CacheHits+1)
	}

	var rr api.RunResponse
	if err := json.Unmarshal(body1, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Counters == nil || rr.Counters.Cycles == 0 || rr.IPC <= 0 || rr.Energy.Total <= 0 {
		t.Errorf("response missing results: %+v", rr)
	}
	if rr.Occupancy.CTAs <= 0 {
		t.Errorf("occupancy CTAs = %d", rr.Occupancy.CTAs)
	}
}

// TestRunCanonicalKeySharing asserts that different spellings of the
// same run — defaults made explicit, alias scheduler/design names —
// share one cache entry.
func TestRunCanonicalKeySharing(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp1, body1 := do(t, ts, http.MethodPost, "/v1/run", `{"kernel":"vectoradd"}`)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d: %s", resp1.StatusCode, body1)
	}
	explicit := `{"kernel":"vectoradd","seed":1,
		"machine":{"design":"partitioned","rf_kb":256,"shared_kb":64,"cache_kb":64,
		           "timing":{"scheduler":"twolevel"}}}`
	resp2, body2 := do(t, ts, http.MethodPost, "/v1/run", explicit)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("explicit POST: %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("explicit spelling X-Cache = %q, want hit (canonical keys should match)", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("equivalent requests returned different bodies")
	}
	// A genuinely different run must not share the entry.
	resp3, _ := do(t, ts, http.MethodPost, "/v1/run", `{"kernel":"vectoradd","seed":7}`)
	if got := resp3.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("different seed X-Cache = %q, want miss", got)
	}
}

// TestBatchDeterminismAcrossWorkers is the service-level determinism
// pin: the same batch against fresh servers under j=1 and j=8 must
// produce byte-identical bodies, including item order and an
// infeasible item's error text.
func TestBatchDeterminismAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	const batch = `{"runs":[
		{"kernel":"vectoradd"},
		{"kernel":"needle","bf":16},
		{"kernel":"vectoradd"},
		{"kernel":"needle","machine":{"rf_kb":1,"shared_kb":1,"cache_kb":1}},
		{"kernel":"dwthaar1d","machine":{"design":"unified","rf_kb":0,"shared_kb":0,"cache_kb":384}}
	]}`
	bodies := make([][]byte, 0, 2)
	for _, j := range []int{1, 8} {
		parallel.SetWorkers(j)
		_, ts := newTestServer(t, Options{InFlight: 4})
		resp, body := do(t, ts, http.MethodPost, "/v1/batch", batch)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("j=%d: status %d: %s", j, resp.StatusCode, body)
		}
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("batch bodies differ between j=1 and j=8")
	}
	var br api.BatchResponse
	if err := json.Unmarshal(bodies[0], &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 5 {
		t.Fatalf("items = %d, want 5", len(br.Results))
	}
	var infeasible api.BatchItem
	if err := json.Unmarshal(br.Results[3], &infeasible); err != nil {
		t.Fatal(err)
	}
	if infeasible.Error == nil || infeasible.Error.Code != api.CodeInfeasible || infeasible.Status != http.StatusUnprocessableEntity {
		t.Errorf("infeasible item = %+v, want a 422 infeasible error entry", infeasible)
	}
	var dup api.BatchItem
	if err := json.Unmarshal(br.Results[2], &dup); err != nil {
		t.Fatal(err)
	}
	if dup.Result == nil {
		t.Fatal("duplicate item missing result")
	}
}

// TestBackpressure asserts the saturation contract on every gated
// endpoint: with the gate full and no queue, a new request is answered
// 429 carrying BOTH the Retry-After header and the over_capacity error
// envelope with retry_after_s, and succeeds once capacity frees up.
func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Options{InFlight: 1, Queue: -1})
	if err := s.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	saturated := []struct {
		path, body string
	}{
		{"/v1/run", `{"kernel":"sto"}`},
		{"/v1/batch", `{"runs":[{"kernel":"sto"}]}`},
	}
	for _, c := range saturated {
		resp, body := do(t, ts, http.MethodPost, c.path, c.body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s saturated status = %d, want 429 (body %s)", c.path, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: 429 without Retry-After", c.path)
		}
		var env api.ErrorBody
		if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
			t.Fatalf("%s: 429 body %s is not an error envelope", c.path, body)
		}
		if env.Error.Code != api.CodeOverCapacity {
			t.Errorf("%s: 429 code = %q, want %q", c.path, env.Error.Code, api.CodeOverCapacity)
		}
		if env.Error.RetryAfterS < 1 {
			t.Errorf("%s: 429 retry_after_s = %d, want >= 1", c.path, env.Error.RetryAfterS)
		}
	}
	if m := snapshot(t, ts); m.Rejected != int64(len(saturated)) {
		t.Errorf("rejected = %d, want %d", m.Rejected, len(saturated))
	}
	s.gate.Release()
	resp2, body2 := do(t, ts, http.MethodPost, "/v1/run", `{"kernel":"sto"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d: %s", resp2.StatusCode, body2)
	}
}

// TestSimulateDeadline pins the 504 path deterministically: an already
// expired deadline aborts the cycle loop at its first context check.
func TestSimulateDeadline(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rr, err := plan.Resolve(api.RunRequest{Kernel: "needle"})
	if err != nil {
		t.Fatal(err)
	}
	rr.Timeout = time.Nanosecond
	status, body := s.simulate(context.Background(), rr, nil)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", status, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Errorf("body = %s, want a deadline message", body)
	}
	if got := s.metrics.timeouts.Load(); got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
}

func TestExperimentEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp1, body1 := do(t, ts, http.MethodPost, "/v1/experiment", `{"name":"table4"}`)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("table4: %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}
	var er api.ExperimentResponse
	if err := json.Unmarshal(body1, &er); err != nil {
		t.Fatal(err)
	}
	if er.Name != "table4" || er.Scheduler != "twolevel" {
		t.Errorf("echo = %q/%q", er.Name, er.Scheduler)
	}
	if er.Text == "" || er.CSV == "" || !strings.HasPrefix(er.Markdown, "|") {
		t.Errorf("missing renderings: %+v", er)
	}
	resp2, body2 := do(t, ts, http.MethodPost, "/v1/experiment", `{"name":"table4"}`)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cached experiment body differs")
	}

	resp3, body3 := do(t, ts, http.MethodPost, "/v1/experiment", `{"name":"bogus"}`)
	if resp3.StatusCode != http.StatusBadRequest || !strings.Contains(string(body3), "table1") {
		t.Errorf("unknown experiment: %d %s, want 400 listing names", resp3.StatusCode, body3)
	}
	resp4, _ := do(t, ts, http.MethodPost, "/v1/experiment", `{"name":"table4","scheduler":"fifo"}`)
	if resp4.StatusCode != http.StatusBadRequest {
		t.Errorf("bad scheduler: %d, want 400", resp4.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name, method, path, body string
		want                     int
		wantIn                   string
	}{
		{"unknown kernel", http.MethodPost, "/v1/run", `{"kernel":"nope"}`, http.StatusBadRequest, "nope"},
		{"missing kernel", http.MethodPost, "/v1/run", `{}`, http.StatusBadRequest, "kernel"},
		{"unknown field", http.MethodPost, "/v1/run", `{"kern":"vectoradd"}`, http.StatusBadRequest, "kern"},
		{"bad machine", http.MethodPost, "/v1/run", `{"kernel":"vectoradd","machine":{"design":"hexagonal"}}`, http.StatusBadRequest, "hexagonal"},
		{"empty batch", http.MethodPost, "/v1/batch", `{"runs":[]}`, http.StatusBadRequest, "runs"},
		{"batch item error names index", http.MethodPost, "/v1/batch", `{"runs":[{"kernel":"vectoradd"},{"kernel":"nope"}]}`, http.StatusBadRequest, "runs[1]"},
		{"wrong method", http.MethodGet, "/v1/run", "", http.StatusMethodNotAllowed, ""},
	}
	for _, c := range cases {
		resp, body := do(t, ts, c.method, c.path, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d (body %s)", c.name, resp.StatusCode, c.want, body)
		}
		if c.wantIn != "" && !strings.Contains(string(body), c.wantIn) {
			t.Errorf("%s: body %s, want mention of %q", c.name, body, c.wantIn)
		}
	}
}

// TestOversizedBodies posts a body one field value larger than maxBody to
// each JSON endpoint: the server must stop reading at the cap and answer
// with a short bad_request envelope, not decode (and echo back) the
// oversized value.
func TestOversizedBodies(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	huge := strings.Repeat("a", maxBody)
	for _, c := range []struct{ path, body string }{
		{"/v1/run", `{"kernel":"` + huge + `"}`},
		{"/v1/batch", `{"runs":[{"kernel":"` + huge + `"}]}`},
		{"/v1/experiment", `{"name":"` + huge + `"}`},
	} {
		resp, body := do(t, ts, http.MethodPost, c.path, c.body)
		var eb api.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == nil {
			t.Errorf("%s: status %d, %d-byte body is not an error envelope", c.path, resp.StatusCode, len(body))
			continue
		}
		if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != api.CodeBadRequest ||
			!strings.Contains(eb.Error.Message, "request body too large") || len(body) > 1<<10 {
			t.Errorf("%s: status %d, code %q, %d-byte body; want a short 400 bad_request saying the body is too large",
				c.path, resp.StatusCode, eb.Error.Code, len(body))
		}
	}
}

// TestInfeasibleRun asserts a configuration the kernel cannot fit is a
// structured 422, not a 500.
func TestInfeasibleRun(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := do(t, ts, http.MethodPost, "/v1/run",
		`{"kernel":"needle","machine":{"rf_kb":1,"shared_kb":1,"cache_kb":1}}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body %s)", resp.StatusCode, body)
	}
	var env api.ErrorBody
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
		t.Fatalf("want the error envelope, got %s", body)
	}
	if env.Error.Code != api.CodeInfeasible {
		t.Errorf("code = %q, want %q", env.Error.Code, api.CodeInfeasible)
	}
}

// TestProbeRun asserts the probe round-trips through the service and
// stays out of the unprobed request's cache key.
func TestProbeRun(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := do(t, ts, http.MethodPost, "/v1/run", `{"kernel":"vectoradd","probe":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probed run: %d: %s", resp.StatusCode, body)
	}
	var rr api.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rr.ProbeNDJSON, "\"type\":") {
		t.Errorf("probe NDJSON missing records: %.80s", rr.ProbeNDJSON)
	}
	// The unprobed spelling is a different canonical request.
	resp2, _ := do(t, ts, http.MethodPost, "/v1/run", `{"kernel":"vectoradd"}`)
	if got := resp2.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("unprobed after probed X-Cache = %q, want miss", got)
	}
}

func TestMetricsShape(t *testing.T) {
	_, ts := newTestServer(t, Options{InFlight: 3})
	do(t, ts, http.MethodPost, "/v1/run", `{"kernel":"vectoradd"}`)
	m := snapshot(t, ts)
	if m.RunRequests != 1 || m.Workers != 3 {
		t.Errorf("run_requests=%d workers=%d", m.RunRequests, m.Workers)
	}
	if m.SimSeconds.Count != 1 || len(m.SimSeconds.Buckets) != len(simSecondsBuckets)+1 {
		t.Errorf("sim_seconds = %+v", m.SimSeconds)
	}
	if !m.SimSeconds.Buckets[len(m.SimSeconds.Buckets)-1].Infinite {
		t.Error("last histogram bucket should be +Inf")
	}
	if m.TraceCache.Lookups == 0 {
		t.Error("trace cache lookups = 0 after a simulation")
	}
	if m.UptimeSeconds <= 0 {
		t.Error("uptime not positive")
	}
}

// TestSimulatePanicDoesNotWedgeKey: a simulation that panics answers 500
// naming its key, and leaves the key free, so a second request for it
// gets its own 500 at once rather than waiting out its deadline on the
// first one's flight entry; batch items for the key fail alone, and
// other keys keep serving.
func TestSimulatePanicDoesNotWedgeKey(t *testing.T) {
	opts := Options{simulateWrap: func(inner simulateFunc) simulateFunc {
		return func(ctx context.Context, rr *plan.Run, sink io.Writer) (int, []byte) {
			if rr.Streams[0].Kernel.Name == "bfs" {
				panic("injected failure")
			}
			return inner(ctx, rr, sink)
		}
	}}
	_, ts := newTestServer(t, opts)
	ts.Client().Timeout = 30 * time.Second
	bad, err := plan.Resolve(api.RunRequest{Kernel: "bfs"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, body := do(t, ts, http.MethodPost, "/v1/run", `{"kernel":"bfs"}`)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d for the failing key: %d, want 500 (body %s)", i+1, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), bad.Key) || !strings.Contains(string(body), "injected failure") {
			t.Errorf("request %d: body %s does not name the key %s and the panic", i+1, body, bad.Key)
		}
	}
	resp, body := do(t, ts, http.MethodPost, "/v1/batch", `{"runs":[{"kernel":"bfs"},{"kernel":"vectoradd"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d: %s", resp.StatusCode, body)
	}
	var batch struct {
		Results []api.BatchItem `json:"results"`
	}
	if err := json.Unmarshal(body, &batch); err != nil || len(batch.Results) != 2 {
		t.Fatalf("batch body %s: %v", body, err)
	}
	if it := batch.Results[0]; it.Status != http.StatusInternalServerError || it.Error == nil || !strings.Contains(it.Error.Message, bad.Key) {
		t.Errorf("failing batch item = %+v, want a 500 naming the key", it)
	}
	if it := batch.Results[1]; it.Result == nil {
		t.Errorf("healthy batch item = %+v, want a result", it)
	}
	if resp, body := do(t, ts, http.MethodPost, "/v1/run", `{"kernel":"vectoradd"}`); resp.StatusCode != http.StatusOK {
		t.Errorf("another key after the failure: %d: %s", resp.StatusCode, body)
	}
}
