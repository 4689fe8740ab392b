package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client is a thin HTTP client for the simulation service. The zero
// value is not usable; call NewClient. Methods return *Error (with
// HTTPStatus filled) for any non-2xx response, so callers branch on the
// envelope's code rather than parsing bodies.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8344".
	BaseURL string
	// HTTP is the underlying client; NewClient defaults it to
	// http.DefaultClient.
	HTTP *http.Client
}

// NewClient returns a Client for the server at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/"), HTTP: http.DefaultClient}
}

// do issues one JSON request and decodes the response into out (nil to
// discard). Non-2xx responses decode into *Error.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	body, err := c.doRaw(ctx, method, path, in)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("api: decoding %s %s: %w", method, path, err)
	}
	return nil
}

// doRaw issues one JSON request and returns the raw response body.
func (c *Client) doRaw(ctx context.Context, method, path string, in any) ([]byte, error) {
	var rd io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("api: encoding %s %s: %w", method, path, err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		e := decodeError(resp.StatusCode, body)
		if e.RetryAfterS == 0 {
			// Non-envelope 429s (proxies, load balancers) still carry the
			// standard header; surface it so WaitJob can back off.
			if n, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && n > 0 {
				e.RetryAfterS = n
			}
		}
		return nil, e
	}
	return body, nil
}

// decodeError turns a non-2xx body into *Error, synthesizing an
// envelope for responses that are not ours (e.g. the mux's 405).
func decodeError(status int, body []byte) *Error {
	var env ErrorBody
	if err := json.Unmarshal(body, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		env.Error.HTTPStatus = status
		return env.Error
	}
	return &Error{
		Code:       CodeInternal,
		Message:    strings.TrimSpace(string(body)),
		HTTPStatus: status,
	}
}

// Run executes one synchronous simulation.
func (c *Client) Run(ctx context.Context, req RunRequest) (*RunResponse, error) {
	var out RunResponse
	if err := c.do(ctx, http.MethodPost, "/v1/run", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Batch executes one synchronous batch.
func (c *Client) Batch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	var out BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/batch", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Experiment renders one named paper experiment synchronously.
func (c *Client) Experiment(ctx context.Context, req ExperimentRequest) (*ExperimentResponse, error) {
	var out ExperimentResponse
	if err := c.do(ctx, http.MethodPost, "/v1/experiment", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Kernels lists the benchmark registry.
func (c *Client) Kernels(ctx context.Context) ([]KernelInfo, error) {
	var out []KernelInfo
	if err := c.do(ctx, http.MethodGet, "/v1/kernels", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Metrics fetches the service's counters.
func (c *Client) Metrics(ctx context.Context) (*Snapshot, error) {
	var out Snapshot
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SubmitJob submits an asynchronous job and returns its initial state.
func (c *Client) SubmitJob(ctx context.Context, req JobRequest) (*Job, error) {
	var out Job
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job polls one job's status and progress.
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	var out Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Jobs lists every job the server knows about.
func (c *Client) Jobs(ctx context.Context) ([]Job, error) {
	var out []Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// CancelJob cancels a job (a no-op on terminal jobs) and returns its
// state after the request.
func (c *Client) CancelJob(ctx context.Context, id string) (*Job, error) {
	var out Job
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// JobResult fetches a terminal job's final result bytes — for a batch
// or sweep job, byte-identical to the synchronous /v1/batch response of
// the same body. A non-terminal job answers 409 (CodeNotReady).
func (c *Client) JobResult(ctx context.Context, id string) ([]byte, error) {
	return c.doRaw(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
}

// waitJobMaxBackoff caps how long WaitJob honors a server's Retry-After
// hint, so a misconfigured server cannot park a waiter for minutes.
const waitJobMaxBackoff = 30 * time.Second

// WaitJob polls the job until it reaches a terminal state (or ctx
// ends). onPoll, when non-nil, observes every successfully polled
// state. Polling honors server backoff: a 429 (over-capacity) poll does
// not fail the wait — the client sleeps for the server's Retry-After /
// retry_after_s hint (at least the poll interval, capped at
// waitJobMaxBackoff) and retries. Every sleep is context-aware, so
// cancellation is prompt even mid-backoff.
func (c *Client) WaitJob(ctx context.Context, id string, interval time.Duration, onPoll func(*Job)) (*Job, error) {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	sleep := func(d time.Duration) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}
	for {
		j, err := c.Job(ctx, id)
		if err != nil {
			var ae *Error
			if errors.As(err, &ae) && ae.HTTPStatus == http.StatusTooManyRequests {
				d := interval
				if hinted := time.Duration(ae.RetryAfterS) * time.Second; hinted > d {
					d = hinted
				}
				if d > waitJobMaxBackoff {
					d = waitJobMaxBackoff
				}
				if err := sleep(d); err != nil {
					return nil, err
				}
				continue
			}
			return nil, err
		}
		if onPoll != nil {
			onPoll(j)
		}
		if j.Terminal() {
			return j, nil
		}
		if err := sleep(interval); err != nil {
			return j, err
		}
	}
}

// Compare runs a compare campaign remotely: it submits the campaign as
// an async job, waits for it (WaitJob semantics, including backoff),
// and returns the decoded batch — byte-for-byte the /v1/batch response
// of the campaign's compiled runs. onPoll, when non-nil, observes every
// poll.
func (c *Client) Compare(ctx context.Context, req CompareRequest, interval time.Duration, onPoll func(*Job)) (*BatchResponse, error) {
	job, err := c.SubmitJob(ctx, JobRequest{Compare: &req})
	if err != nil {
		return nil, err
	}
	job, err = c.WaitJob(ctx, job.ID, interval, onPoll)
	if err != nil {
		return nil, err
	}
	if job.State != JobDone {
		return nil, fmt.Errorf("api: compare job %s finished %s: %v", job.ID, job.State, job.Error)
	}
	raw, err := c.JobResult(ctx, job.ID)
	if err != nil {
		return nil, err
	}
	var br BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		return nil, fmt.Errorf("api: decoding compare job result: %w", err)
	}
	return &br, nil
}
