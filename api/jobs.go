package api

import (
	"fmt"
	"strconv"

	"repro/internal/machine"
)

// JobRequest submits an asynchronous job: exactly one of the fields
// must be set. POST /v1/jobs validates the spec synchronously (a bad
// spec is a 400, never a failed job), persists it when the server has a
// -data-dir, and answers 202 with the Job before any simulation runs.
type JobRequest struct {
	// Run executes one simulation.
	Run *RunRequest `json:"run,omitempty"`
	// Batch executes many simulations with the /v1/batch semantics
	// (ordering, warm-prefix sharing, per-item errors).
	Batch *BatchRequest `json:"batch,omitempty"`
	// Sweep expands a parameter/capacity sweep into a batch server-side
	// (the cmd/sweep surface as a job).
	Sweep *SweepRequest `json:"sweep,omitempty"`
	// Experiment renders one named paper experiment.
	Experiment *ExperimentRequest `json:"experiment,omitempty"`
	// Compare runs a declarative compare campaign, expanded server-side
	// into its machine-major batch (the cmd/compare surface as a job).
	Compare *CompareRequest `json:"compare,omitempty"`
}

// SweepRequest is a server-side sweep: one kernel, one base machine,
// one resource axis swept across a range. Capacity axes (rf, shared,
// cache — values in KB) run one independent simulation per point;
// parameter axes (mshr, dramlat, drambw) are divergable across a
// snapshot and share one copy-on-write warm prefix when WarmCycles is
// set (see BatchRequest.WarmCycles).
type SweepRequest struct {
	// Kernel names the benchmark, as in RunRequest.
	Kernel string `json:"kernel"`
	// BF selects a blocking-factor variant, as in RunRequest.
	BF int `json:"bf,omitempty"`
	// Machine is the base machine; the swept field is overwritten per
	// point. An entirely unspecified capacity split takes the sweep
	// default (full-occupancy RF, unbounded shared, baseline cache —
	// exactly cmd/sweep's local baseline), not the paper baseline.
	Machine machine.Description `json:"machine,omitempty"`
	// RegsPerThread passes through to every point's RunRequest.
	RegsPerThread int `json:"regs_per_thread,omitempty"`
	// Seed passes through to every point's RunRequest.
	Seed uint64 `json:"seed,omitempty"`
	// Resource is the swept axis: "rf" | "shared" | "cache" (capacity,
	// KB) or "mshr" | "dramlat" | "drambw" (timing parameter).
	Resource string `json:"resource"`
	// From is the range's first value (inclusive).
	From int `json:"from"`
	// To is the range's last value (inclusive).
	To int `json:"to"`
	// Step is a positive additive step (e.g. "64") or "2x" for doubling.
	Step string `json:"step"`
	// WarmCycles shares one warm prefix across parameter-axis points
	// (rejected for capacity axes, which define the warm-up history).
	WarmCycles int64 `json:"warm_cycles,omitempty"`
	// TimeoutMS bounds each point's wall time (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ParseStep turns a sweep step spec into a successor function: "2x"
// doubles, a positive integer adds. Anything else — including trailing
// garbage like "64abc", which fmt.Sscanf would silently accept — is
// rejected.
func ParseStep(step string) (func(v int) int, error) {
	if step == "2x" {
		return func(v int) int { return v * 2 }, nil
	}
	add, err := strconv.Atoi(step)
	if err != nil || add <= 0 {
		return nil, fmt.Errorf("bad step %q (want a positive step or 2x)", step)
	}
	return func(v int) int { return v + add }, nil
}

// MaxRuns bounds the runs one request expands to: a batch's items and
// a sweep's points. Both are resolved synchronously on submit, so an
// unbounded request would hold the handler and its memory.
const MaxRuns = 10000

// Values expands the sweep's From/To/Step range into its point values.
// A range with more than MaxRuns points, or whose step overflows int
// before passing To, is an error.
func (s *SweepRequest) Values() ([]int, error) {
	next, err := ParseStep(s.Step)
	if err != nil {
		return nil, err
	}
	if s.From <= 0 || s.To < s.From {
		return nil, fmt.Errorf("bad sweep range [%d, %d] (want 0 < from <= to)", s.From, s.To)
	}
	var values []int
	for v := s.From; v <= s.To; {
		if len(values) == MaxRuns {
			return nil, fmt.Errorf("range [%d, %d] step %s has more than %d points", s.From, s.To, s.Step, MaxRuns)
		}
		values = append(values, v)
		if v == s.To {
			break
		}
		n := next(v)
		if n <= v {
			return nil, fmt.Errorf("range [%d, %d] step %s overflows int after %d", s.From, s.To, s.Step, v)
		}
		v = n
	}
	return values, nil
}

// Job states. A job moves queued -> running -> one of the terminal
// states (done, failed, cancelled); a restarted server re-enters
// persisted queued/running jobs as queued.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// Job is a job's observable state: the POST /v1/jobs and GET
// /v1/jobs/{id} response.
type Job struct {
	// ID addresses the job ("j1", "j2", ...; unique per data directory).
	ID string `json:"id"`
	// Type is "run", "batch", "sweep", "experiment", or "compare".
	Type string `json:"type"`
	// State is one of the Job* state constants.
	State string `json:"state"`
	// Note is a short human description of the job ("sweep bfs cache
	// 32..512KB").
	Note string `json:"note,omitempty"`
	// Progress is the live item accounting.
	Progress JobProgress `json:"progress"`
	// Resumes counts server restarts that re-entered this job.
	Resumes int `json:"resumes,omitempty"`
	// CreatedUnix is the submission time as a Unix-second timestamp.
	CreatedUnix int64 `json:"created_unix,omitempty"`
	// StartedUnix is when the job left the queue (0 = not yet).
	StartedUnix int64 `json:"started_unix,omitempty"`
	// FinishedUnix is when the job reached a terminal state (0 = not yet).
	FinishedUnix int64 `json:"finished_unix,omitempty"`
	// Error is set when State is failed or cancelled.
	Error *Error `json:"error,omitempty"`
}

// Terminal reports whether the job has finished (successfully or not).
func (j *Job) Terminal() bool {
	return j.State == JobDone || j.State == JobFailed || j.State == JobCancelled
}

// JobProgress is a job's item accounting. Done counts every settled
// item; the cache fields split settled items by where their result came
// from, so Simulated = Done - CacheHits - StoreHits - Coalesced.
type JobProgress struct {
	// Done counts every settled item.
	Done int `json:"done"`
	// Total is the job's item count.
	Total int `json:"total"`
	// Errors counts items that settled with a per-item error (e.g.
	// infeasible sweep points).
	Errors int `json:"errors,omitempty"`
	// CacheHits counts items served from the in-memory result cache.
	CacheHits int `json:"cache_hits,omitempty"`
	// StoreHits counts items replayed from the persistent store (the
	// resume path).
	StoreHits int `json:"store_hits,omitempty"`
	// Coalesced counts items that waited on an identical in-flight
	// computation.
	Coalesced int `json:"coalesced,omitempty"`
	// Current describes what the job is doing right now — notably the
	// warm prefix being computed ("warm@20000 group ab12cd34"), the
	// checkpoint granularity a killed sweep re-pays on resume.
	Current string `json:"current,omitempty"`
}

// JobStats is the engine half of the /metrics snapshot.
type JobStats struct {
	// Submitted counts jobs accepted this process.
	Submitted int64 `json:"submitted"`
	// Resumed counts jobs re-entered from a previous process's data
	// directory.
	Resumed int64 `json:"resumed"`
	// Queued is the number of jobs currently waiting.
	Queued int `json:"queued"`
	// Active is the number of jobs currently executing.
	Active int `json:"active"`
	// Done counts successful terminal transitions this process.
	Done int64 `json:"done"`
	// Failed counts failed terminal transitions this process.
	Failed int64 `json:"failed"`
	// Cancelled counts cancelled terminal transitions this process.
	Cancelled int64 `json:"cancelled"`
}
