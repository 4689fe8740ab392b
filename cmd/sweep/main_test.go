package main

import (
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/api"
	"repro/internal/plan"
	"repro/internal/serve"
)

// TestLocalMatchesJob runs sweeps locally through internal/plan and as
// /v1/jobs sweeps on an in-process smserve, and requires identical rows,
// energy included. The parameter sweep forks a shared warm prefix on
// both sides; its energy is calibrated by each point's own runner.
func TestLocalMatchesJob(t *testing.T) {
	s, err := serve.New(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, req := range []api.SweepRequest{
		{Kernel: "nn", Resource: "cache", From: 32, To: 256, Step: "2x"},
		{Kernel: "bfs", Resource: "mshr", From: 2, To: 16, Step: "2x", WarmCycles: 20000},
	} {
		breq, _, err := plan.ExpandSweep(req)
		if err != nil {
			t.Fatal(err)
		}
		local, err := sweepRows(req, breq, "")
		if err != nil {
			t.Fatalf("%s %s local: %v", req.Kernel, req.Resource, err)
		}
		remote, err := sweepRows(req, breq, ts.URL)
		if err != nil {
			t.Fatalf("%s %s via job: %v", req.Kernel, req.Resource, err)
		}
		if !reflect.DeepEqual(local, remote) {
			t.Errorf("%s %s: local rows differ from job rows\nlocal: %q\n  job: %q",
				req.Kernel, req.Resource, local, remote)
		}
	}
}
