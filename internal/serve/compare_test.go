package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/api"
	"repro/internal/campaign"
	"repro/internal/core"
)

const compareBody = `{
	"name": "duel",
	"machines": [
		{"name": "base"},
		{"name": "uni", "alloc_total_kb": 384},
		{"name": "fermi", "fermi_total_kb": 384}
	],
	"workloads": ["vectoradd", "sto"],
	"thresholds": {"ipc": 50}
}`

// TestJobCompare is the compare job's end-to-end contract: the job
// executes the campaign's compiled run matrix, its result bytes are
// byte-identical to the synchronous /v1/batch of those runs, and the
// decoded result renders the same tables as a local Execute.
func TestJobCompare(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	c, err := campaign.Parse([]byte(compareBody))
	if err != nil {
		t.Fatal(err)
	}

	j := submitJob(t, ts, `{"compare":`+compareBody+`}`)
	if j.Type != "compare" || j.Progress.Total != len(c.Runs) {
		t.Fatalf("submit view = %+v, want compare with %d items", j, len(c.Runs))
	}
	if j.Note != "compare duel (3 machines x 2 workloads)" {
		t.Errorf("note = %q", j.Note)
	}
	done := pollJob(t, ts, j.ID)
	if done.State != api.JobDone || done.Progress.Done != len(c.Runs) {
		t.Fatalf("terminal view = %+v", done)
	}

	// The job result is byte-identical to POST /v1/batch of the
	// campaign's compiled runs.
	breq, err := json.Marshal(api.BatchRequest{Runs: c.Runs})
	if err != nil {
		t.Fatal(err)
	}
	respSync, syncBody := do(t, ts, http.MethodPost, "/v1/batch", string(breq))
	if respSync.StatusCode != http.StatusOK {
		t.Fatalf("sync batch: %d: %s", respSync.StatusCode, syncBody)
	}
	respJob, jobBody := do(t, ts, http.MethodGet, "/v1/jobs/"+j.ID+"/result", "")
	if respJob.StatusCode != http.StatusOK {
		t.Fatalf("job result: %d: %s", respJob.StatusCode, jobBody)
	}
	if !bytes.Equal(jobBody, syncBody) {
		t.Errorf("compare job result differs from sync batch:\njob:  %s\nsync: %s", jobBody, syncBody)
	}

	// Decoding the job result renders byte-identical tables to a local
	// execution of the same campaign.
	var br api.BatchResponse
	if err := json.Unmarshal(jobBody, &br); err != nil {
		t.Fatal(err)
	}
	remote, err := c.ResultFromBatch(&br)
	if err != nil {
		t.Fatal(err)
	}
	local, err := c.Execute(core.NewRunner())
	if err != nil {
		t.Fatal(err)
	}
	rt, lt := remote.Tables(), local.Tables()
	if len(rt) != len(lt) {
		t.Fatalf("remote rendered %d tables, local %d", len(rt), len(lt))
	}
	for i := range rt {
		if rt[i].String() != lt[i].String() {
			t.Errorf("table %d differs:\n--- remote ---\n%s--- local ---\n%s", i, rt[i], lt[i])
		}
	}
	if len(remote.Regressions()) != len(local.Regressions()) {
		t.Errorf("regressions diverge: remote %v, local %v", remote.Regressions(), local.Regressions())
	}
}

// TestJobCompareAllocationInfeasible: a cell whose §4.5 allocation
// cannot fit one CTA settles as an infeasible item, so the job finishes
// and renders the same tables as a local Execute, which settles the
// cell the same way.
func TestJobCompareAllocationInfeasible(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"name":"tiny","machines":[{"name":"base"},{"name":"uni-32","alloc_total_kb":32}],"workloads":["dgemm","vectoradd"]}`
	c, err := campaign.Parse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	j := submitJob(t, ts, `{"compare":`+body+`}`)
	if done := pollJob(t, ts, j.ID); done.State != api.JobDone {
		t.Fatalf("terminal view = %+v", done)
	}
	resp, jobBody := do(t, ts, http.MethodGet, "/v1/jobs/"+j.ID+"/result", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job result: %d: %s", resp.StatusCode, jobBody)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(jobBody, &br); err != nil {
		t.Fatal(err)
	}
	remote, err := c.ResultFromBatch(&br)
	if err != nil {
		t.Fatal(err)
	}
	if !remote.Outcomes[1][0].Infeasible {
		t.Errorf("dgemm under uni-32 = %+v, want infeasible", remote.Outcomes[1][0])
	}
	local, err := c.Execute(core.NewRunner())
	if err != nil {
		t.Fatal(err)
	}
	rt, lt := remote.Tables(), local.Tables()
	for i := range rt {
		if rt[i].String() != lt[i].String() {
			t.Errorf("table %d differs:\n--- remote ---\n%s--- local ---\n%s", i, rt[i], lt[i])
		}
	}
}

// TestJobCompareValidation pins the 400 contract for bad campaigns.
func TestJobCompareValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		body string
		want string
	}{
		{`{"compare":{"machines":[{"name":"m"}],"workloads":["sto"]}}`, "missing \"name\""},
		{`{"compare":{"name":"x","machines":[],"workloads":["sto"]}}`, "at least one machine"},
		{`{"compare":{"name":"x","machines":[{"name":"m"}],"workloads":["nope"]}}`, "nope"},
		{`{"compare":{"name":"x","machines":[{"name":"m"}],"workloads":["sto"],"metrics":["vibes"]}}`, "unknown metric"},
		{`{"compare":{"name":"x","machines":[{"name":"m","alloc_total_kb":384,"fermi_total_kb":384}],"workloads":["sto"]}}`, "at most one of"},
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
		if !strings.HasPrefix(env.Error.Message, "compare:") || !strings.Contains(env.Error.Message, c.want) {
			t.Errorf("POST %s: error = %q, want compare: prefix containing %q", c.body, env.Error.Message, c.want)
		}
	}
}

// TestRunFermiTotalKB pins the fermi_total_kb override on the
// synchronous run endpoint: the Fermi-like preset with a fixed 256KB
// register file.
func TestRunFermiTotalKB(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := do(t, ts, http.MethodPost, "/v1/run", `{"kernel":"bfs","fermi_total_kb":384}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d: %s", resp.StatusCode, body)
	}
	var rr api.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Config.Design != "fermi-like" || rr.Config.RFBytes != 256<<10 {
		t.Errorf("config = %+v, want fermi-like with 256KB RF", rr.Config)
	}
	if total := rr.Config.RFBytes + rr.Config.SharedBytes + rr.Config.CacheBytes; total != 384<<10 {
		t.Errorf("total capacity = %d, want 384KB", total)
	}

	for _, bad := range []string{
		`{"kernel":"bfs","fermi_total_kb":384,"alloc_total_kb":384}`,
		`{"kernel":"bfs","fermi_total_kb":256}`,
	} {
		resp, body := do(t, ts, http.MethodPost, "/v1/run", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status = %d: %s, want 400", bad, resp.StatusCode, body)
		}
	}
}
