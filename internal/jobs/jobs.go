// Package jobs is the durable async job engine behind the simulation
// service's /v1/jobs API: a submitted run/batch/sweep/experiment
// returns immediately with a job id, executes in the background under
// bounded admission (parallel.Gate for concurrent jobs, parallel.Map
// for item fan-out), reports progress through the polled job state, and
// cancels through the same context plumbing the synchronous endpoints
// use.
//
// The engine is deliberately generic: it knows nothing about
// simulations. The service hands it two callbacks — Resolve, which
// turns a raw request body into a Plan (an ordered item list plus an
// assembly function), and Exec, which settles one item — and the
// engine owns everything else: the state machine
// (queued -> running -> done | failed | cancelled), item accounting
// and persistence.
//
// Durability: with Options.Dir set, every job's request is written
// (atomically, via internal/store's rename trick) to
// <dir>/<id>.json before Submit returns, and its terminal state and
// final result bytes are written when it finishes. A process that dies
// mid-job leaves the record in a non-terminal state; New re-reads the
// directory, re-resolves those requests, and re-enters them as queued
// jobs with Resumes incremented. The engine does not checkpoint item
// results itself — item results live in the service's content-addressed
// store (internal/store), keyed by each item's canonical SHA-256, so a
// resumed job "skips" completed items simply because Exec finds their
// bytes already stored. The checkpoint granularity is therefore one
// item; a killed sweep re-pays at most its warm prefix plus the items
// in flight at the kill.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/api"
	"repro/internal/parallel"
	"repro/internal/store"
)

// Sentinel errors. ErrStorage wraps persistence failures (a 500, not a
// client error); ErrNotFound and ErrNotReady map to 404 and 409.
var (
	ErrStorage  = errors.New("jobs: storage failure")
	ErrNotFound = errors.New("jobs: no such job")
	ErrNotReady = errors.New("jobs: job has not finished")
)

// Item is one unit of work in a job. Items are positional: results
// assemble in Plan.Items order.
type Item struct {
	// Key is the item's canonical result key (the store's SHA-256).
	Key string
	// Payload is opaque to the engine and interpreted by Exec (the
	// service stores its resolved run here).
	Payload any
}

// Plan is a resolved job: its ordered items and how to assemble their
// settled bodies into the job's final result.
type Plan struct {
	// Type is the job flavor ("run", "batch", "sweep", "experiment").
	// Single-item types (run, experiment) fail the job when their item
	// fails; multi-item types embed per-item errors in the final body
	// and finish "done", exactly like the synchronous /v1/batch.
	Type string
	// Note is a short human description carried on the Job.
	Note string
	// Items are the units of work.
	Items []Item
	// Assemble builds the final (status, body) from every item's
	// settled status and body, in item order. It must be deterministic:
	// the job result endpoint's byte-identity contract rests on it.
	Assemble func(statuses []int, bodies [][]byte) (int, []byte)
}

// ItemContext lets Exec report progress back into the job while an
// item runs.
type ItemContext struct {
	job *job
}

// Note sets the job's "current activity" progress field (e.g. the warm
// prefix being computed). An empty string clears it.
func (c *ItemContext) Note(s string) {
	if c == nil || c.job == nil {
		return
	}
	c.job.setCurrent(s)
}

// Exec settles one item: it returns the item's HTTP-equivalent status,
// its body bytes, and where the body came from ("miss", "hit",
// "stored", "coalesced"). Exec must honor ctx (cancellation settles
// remaining items as 408s) and must be deterministic in (status, body).
type Exec func(ctx context.Context, it Item, ic *ItemContext) (status int, body []byte, cache string)

// Resolve turns a raw request body into a Plan. It runs synchronously
// on Submit (a bad spec is the caller's 400, never a failed job) and
// again on restart for every persisted non-terminal job.
type Resolve func(request []byte) (Plan, error)

// Options configures an Engine. Resolve and Exec are required.
type Options struct {
	// Dir is the job-record directory; empty runs the engine without
	// persistence (jobs die with the process).
	Dir string
	// Slots bounds concurrently executing jobs (default 2); Queue
	// bounds jobs waiting behind them (default 1024). Items of a
	// running job additionally fan out under the process-wide
	// parallel.SetWorkers budget, like batch requests.
	Slots int
	Queue int
	// History bounds terminal jobs kept in memory (default 256); with
	// persistence, evicted jobs remain readable from their records.
	History int
	// Resolve and Exec are the service callbacks described above.
	Resolve Resolve
	Exec    Exec
}

// job is the engine-internal state of one job.
type job struct {
	mu sync.Mutex

	id      string
	typ     string
	note    string
	request []byte
	plan    Plan

	state    string
	progress api.JobProgress
	resumes  int
	jobErr   *api.Error

	created  time.Time
	started  time.Time
	finished time.Time

	cancelled bool
	ctx       context.Context
	cancel    context.CancelFunc

	finalStatus int
	final       []byte
	// onDisk marks history records loaded from a previous process:
	// their final bytes live only in the result file.
	onDisk bool
}

// Engine runs jobs. Create one with New; Close it on shutdown.
type Engine struct {
	opts Options
	gate *parallel.Gate

	mu   sync.Mutex
	jobs map[string]*job
	seq  int

	rootCtx    context.Context
	rootCancel context.CancelFunc
	closing    bool
	wg         sync.WaitGroup

	submitted, resumed           int64
	done, failed, cancelledCount int64
}

// New returns an Engine and, when opts.Dir is set, resumes every
// persisted non-terminal job found there.
func New(opts Options) (*Engine, error) {
	if opts.Resolve == nil || opts.Exec == nil {
		return nil, fmt.Errorf("jobs: Options.Resolve and Options.Exec are required")
	}
	if opts.Slots < 1 {
		opts.Slots = 2
	}
	if opts.Queue < 1 {
		opts.Queue = 1024
	}
	if opts.History < 1 {
		opts.History = 256
	}
	e := &Engine{
		opts: opts,
		gate: parallel.NewGate(opts.Slots, opts.Queue),
		jobs: make(map[string]*job),
	}
	e.rootCtx, e.rootCancel = context.WithCancel(context.Background())
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: %w", err)
		}
		if err := e.recover(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Close stops the engine: running jobs are aborted WITHOUT being marked
// terminal (their records keep their last persisted state, so the next
// New on the same directory resumes them — the graceful-shutdown path
// is deliberately identical to a SIGKILL). Close blocks until every
// job goroutine has returned.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closing {
		e.mu.Unlock()
		return
	}
	e.closing = true
	e.mu.Unlock()
	e.rootCancel()
	e.wg.Wait()
}

// Submit resolves, persists, and enqueues one job. The returned Job is
// the initial (queued) state. Resolve errors are returned verbatim
// (the caller's 400); persistence errors wrap ErrStorage.
func (e *Engine) Submit(request []byte) (api.Job, error) {
	plan, err := e.opts.Resolve(request)
	if err != nil {
		return api.Job{}, err
	}
	e.mu.Lock()
	if e.closing {
		e.mu.Unlock()
		return api.Job{}, fmt.Errorf("%w: engine is shut down", ErrStorage)
	}
	e.seq++
	id := "j" + strconv.Itoa(e.seq)
	j := e.newJob(id, plan, json.RawMessage(request), 0)
	e.jobs[id] = j
	e.submitted++
	e.mu.Unlock()

	if err := e.persist(j); err != nil {
		e.mu.Lock()
		delete(e.jobs, id)
		e.mu.Unlock()
		return api.Job{}, fmt.Errorf("%w: %v", ErrStorage, err)
	}
	view := j.view()
	e.start(j)
	return view, nil
}

// newJob constructs a queued job (caller holds e.mu or is recover()).
func (e *Engine) newJob(id string, plan Plan, request json.RawMessage, resumes int) *job {
	ctx, cancel := context.WithCancel(e.rootCtx)
	j := &job{
		id:      id,
		typ:     plan.Type,
		note:    plan.Note,
		request: request,
		plan:    plan,
		state:   api.JobQueued,
		resumes: resumes,
		created: time.Now(),
		ctx:     ctx,
		cancel:  cancel,
	}
	j.progress.Total = len(plan.Items)
	return j
}

// start launches the job's goroutine.
func (e *Engine) start(j *job) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.run(j)
	}()
}

// run executes one job end to end.
func (e *Engine) run(j *job) {
	if err := e.gate.Acquire(j.ctx); err != nil {
		// Either the queue is full, the job was cancelled while queued,
		// or the engine is shutting down.
		if e.isClosing() && !j.isCancelled() {
			return // abandoned; record stays queued for the next process
		}
		if errors.Is(err, parallel.ErrQueueFull) {
			e.finish(j, api.JobFailed, &api.Error{
				Code:    api.CodeOverCapacity,
				Message: "job queue is full",
			}, nil, 0)
			return
		}
		e.finish(j, api.JobCancelled, &api.Error{
			Code:    api.CodeCancelled,
			Message: "job cancelled while queued",
		}, nil, 0)
		return
	}
	defer e.gate.Release()

	j.mu.Lock()
	j.state = api.JobRunning
	j.started = time.Now()
	j.mu.Unlock()
	_ = e.persist(j)

	n := len(j.plan.Items)
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	_, perr := parallel.Map(n, func(i int) (struct{}, error) {
		status, body, cache := e.opts.Exec(j.ctx, j.plan.Items[i], &ItemContext{job: j})
		statuses[i], bodies[i] = status, body
		j.settleItem(status, cache)
		return struct{}{}, nil
	})

	if e.isClosing() && !j.isCancelled() {
		return // abandoned mid-run; record stays running, resume re-enters
	}

	var pe *parallel.PanicError
	if errors.As(perr, &pe) && !j.isCancelled() {
		// Items report their own failures in their bodies; only a
		// recovered panic fails the job without one.
		e.finish(j, api.JobFailed, &api.Error{Code: api.CodeInternal,
			Message: fmt.Sprintf("%v (key %s)", pe, j.plan.Items[pe.Index].Key)}, nil, 0)
		return
	}
	finalStatus, final := 0, []byte(nil)
	if j.plan.Assemble != nil {
		finalStatus, final = j.plan.Assemble(statuses, bodies)
	}
	switch {
	case j.isCancelled():
		e.finish(j, api.JobCancelled, &api.Error{
			Code:    api.CodeCancelled,
			Message: "job cancelled",
		}, final, finalStatus)
	case (j.typ == "run" || j.typ == "experiment") && finalStatus != 0 && finalStatus != 200:
		var env api.ErrorBody
		jerr := &api.Error{Code: api.CodeInternal, Message: "item failed"}
		if err := json.Unmarshal(final, &env); err == nil && env.Error != nil {
			jerr = env.Error
		}
		e.finish(j, api.JobFailed, jerr, final, finalStatus)
	default:
		e.finish(j, api.JobDone, nil, final, finalStatus)
	}
}

// finish moves a job to a terminal state and persists it.
func (e *Engine) finish(j *job, state string, jerr *api.Error, final []byte, finalStatus int) {
	j.mu.Lock()
	j.state = state
	j.jobErr = jerr
	j.finished = time.Now()
	j.final = final
	j.finalStatus = finalStatus
	j.progress.Current = ""
	// The disk is the commit point, and the lock is held until both
	// writes land: the result bytes first, then the terminal record.
	// An engine opened against the same directory must never read a
	// stale running record for a job this process already reported
	// terminal (it would resume a finished job), nor a terminal record
	// whose result file has not appeared yet.
	if e.opts.Dir != "" {
		if final != nil {
			_ = store.WriteFileAtomic(e.resultPath(j.id), final)
		}
		_ = e.persistLocked(j)
	}
	j.mu.Unlock()

	e.mu.Lock()
	switch state {
	case api.JobDone:
		e.done++
	case api.JobFailed:
		e.failed++
	case api.JobCancelled:
		e.cancelledCount++
	}
	e.mu.Unlock()

	e.trimHistory()
}

func (e *Engine) isClosing() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closing
}

// Get returns a job's state. Evicted persisted jobs are re-read from
// their records.
func (e *Engine) Get(id string) (api.Job, bool) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if ok {
		return j.view(), true
	}
	if rec, err := e.readRecord(id); err == nil {
		return rec.view(), true
	}
	return api.Job{}, false
}

// List returns every in-memory job, oldest id first.
func (e *Engine) List() []api.Job {
	e.mu.Lock()
	js := make([]*job, 0, len(e.jobs))
	for _, j := range e.jobs {
		js = append(js, j)
	}
	e.mu.Unlock()
	sort.Slice(js, func(a, b int) bool { return jobNum(js[a].id) < jobNum(js[b].id) })
	out := make([]api.Job, len(js))
	for i, j := range js {
		out[i] = j.view()
	}
	return out
}

// Cancel requests cancellation. Terminal jobs are unaffected; the
// returned Job is the state after the request.
func (e *Engine) Cancel(id string) (api.Job, bool) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		if rec, err := e.readRecord(id); err == nil {
			return rec.view(), true
		}
		return api.Job{}, false
	}
	j.mu.Lock()
	terminal := j.state == api.JobDone || j.state == api.JobFailed || j.state == api.JobCancelled
	if !terminal {
		j.cancelled = true
	}
	j.mu.Unlock()
	if !terminal {
		j.cancel()
	}
	return j.view(), true
}

// Result returns a terminal job's final (status, body). ErrNotFound
// and ErrNotReady are the non-success cases; storage failures wrap
// ErrStorage.
func (e *Engine) Result(id string) (int, []byte, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		rec, err := e.readRecord(id)
		if err != nil {
			return 0, nil, ErrNotFound
		}
		j = rec
	}
	j.mu.Lock()
	state, final, status, onDisk := j.state, j.final, j.finalStatus, j.onDisk
	j.mu.Unlock()
	if state != api.JobDone && state != api.JobFailed && state != api.JobCancelled {
		return 0, nil, ErrNotReady
	}
	if final == nil && onDisk && e.opts.Dir != "" {
		body, err := os.ReadFile(e.resultPath(id))
		if err != nil {
			return 0, nil, fmt.Errorf("%w: %v", ErrStorage, err)
		}
		return status, body, nil
	}
	if final == nil {
		return 0, nil, fmt.Errorf("%w: job has no result", ErrStorage)
	}
	return status, final, nil
}

// Stats returns the engine's accounting.
func (e *Engine) Stats() api.JobStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := api.JobStats{
		Submitted: e.submitted,
		Resumed:   e.resumed,
		Done:      e.done,
		Failed:    e.failed,
		Cancelled: e.cancelledCount,
	}
	for _, j := range e.jobs {
		j.mu.Lock()
		switch j.state {
		case api.JobQueued:
			s.Queued++
		case api.JobRunning:
			s.Active++
		}
		j.mu.Unlock()
	}
	return s
}

// trimHistory evicts the oldest terminal jobs beyond the history bound.
// Persisted jobs stay readable via their records.
func (e *Engine) trimHistory() {
	e.mu.Lock()
	defer e.mu.Unlock()
	var terminal []*job
	for _, j := range e.jobs {
		j.mu.Lock()
		if j.state == api.JobDone || j.state == api.JobFailed || j.state == api.JobCancelled {
			terminal = append(terminal, j)
		}
		j.mu.Unlock()
	}
	if len(terminal) <= e.opts.History {
		return
	}
	sort.Slice(terminal, func(a, b int) bool { return jobNum(terminal[a].id) < jobNum(terminal[b].id) })
	for _, j := range terminal[:len(terminal)-e.opts.History] {
		delete(e.jobs, j.id)
	}
}

// jobNum extracts the numeric part of a job id for ordering.
func jobNum(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "j"))
	return n
}

// ---- job internals ----

// settleItem counts one settled item into the job's progress.
func (j *job) settleItem(status int, cache string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress.Done++
	if status != 200 {
		j.progress.Errors++
	}
	switch cache {
	case "hit":
		j.progress.CacheHits++
	case "stored":
		j.progress.StoreHits++
	case "coalesced":
		j.progress.Coalesced++
	}
}

func (j *job) setCurrent(s string) {
	j.mu.Lock()
	j.progress.Current = s
	j.mu.Unlock()
}

func (j *job) isCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelled
}

// view renders the job's public state.
func (j *job) view() api.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return api.Job{
		ID:           j.id,
		Type:         j.typ,
		State:        j.state,
		Note:         j.note,
		Progress:     j.progress,
		Resumes:      j.resumes,
		CreatedUnix:  unix(j.created),
		StartedUnix:  unix(j.started),
		FinishedUnix: unix(j.finished),
		Error:        j.jobErr,
	}
}

func unix(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.Unix()
}

// ---- persistence ----

// record is the on-disk form of a job.
type record struct {
	ID          string          `json:"id"`
	Type        string          `json:"type"`
	State       string          `json:"state"`
	Note        string          `json:"note,omitempty"`
	Request     json.RawMessage `json:"request"`
	Progress    api.JobProgress `json:"progress"`
	Resumes     int             `json:"resumes,omitempty"`
	Created     int64           `json:"created_unix,omitempty"`
	Started     int64           `json:"started_unix,omitempty"`
	Finished    int64           `json:"finished_unix,omitempty"`
	Error       *api.Error      `json:"error,omitempty"`
	FinalStatus int             `json:"final_status,omitempty"`
}

func (e *Engine) recordPath(id string) string {
	return filepath.Join(e.opts.Dir, id+".json")
}

func (e *Engine) resultPath(id string) string {
	return filepath.Join(e.opts.Dir, id+".result.json")
}

// persist writes the job's record; a no-op without a directory.
func (e *Engine) persist(j *job) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return e.persistLocked(j)
}

// persistLocked is persist with j.mu already held. The record write
// completes before the caller releases the lock, which is what lets
// finish make the on-disk record durable before the terminal state
// becomes observable.
func (e *Engine) persistLocked(j *job) error {
	if e.opts.Dir == "" {
		return nil
	}
	rec := record{
		ID:          j.id,
		Type:        j.typ,
		State:       j.state,
		Note:        j.note,
		Request:     j.request,
		Progress:    j.progress,
		Resumes:     j.resumes,
		Created:     unix(j.created),
		Started:     unix(j.started),
		Finished:    unix(j.finished),
		Error:       j.jobErr,
		FinalStatus: j.finalStatus,
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return store.WriteFileAtomic(e.recordPath(j.id), append(data, '\n'))
}

// readRecord loads a persisted job as a read-only history entry.
func (e *Engine) readRecord(id string) (*job, error) {
	if e.opts.Dir == "" || !validJobID(id) {
		return nil, ErrNotFound
	}
	data, err := os.ReadFile(e.recordPath(id))
	if err != nil {
		return nil, ErrNotFound
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStorage, err)
	}
	return recordJob(rec), nil
}

// recordJob materializes a record as an in-memory history job.
func recordJob(rec record) *job {
	return &job{
		id:          rec.ID,
		typ:         rec.Type,
		note:        rec.Note,
		request:     rec.Request,
		state:       rec.State,
		progress:    rec.Progress,
		resumes:     rec.Resumes,
		jobErr:      rec.Error,
		created:     time.Unix(rec.Created, 0),
		started:     timeOrZero(rec.Started),
		finished:    timeOrZero(rec.Finished),
		finalStatus: rec.FinalStatus,
		onDisk:      true,
	}
}

func timeOrZero(sec int64) time.Time {
	if sec == 0 {
		return time.Time{}
	}
	return time.Unix(sec, 0)
}

// validJobID guards record paths: ids are "j<number>".
func validJobID(id string) bool {
	if len(id) < 2 || len(id) > 20 || id[0] != 'j' {
		return false
	}
	for i := 1; i < len(id); i++ {
		if id[i] < '0' || id[i] > '9' {
			return false
		}
	}
	return true
}

// recover re-reads the record directory: terminal jobs become history
// entries, non-terminal ones are re-resolved and re-entered as queued
// jobs (the restart half of checkpoint/resume).
func (e *Engine) recover() error {
	entries, err := os.ReadDir(e.opts.Dir)
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	var resumable []*job
	for _, ent := range entries {
		name := ent.Name()
		id, ok := strings.CutSuffix(name, ".json")
		if !ok || !validJobID(id) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(e.opts.Dir, name))
		if err != nil {
			continue
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil || rec.ID != id {
			continue
		}
		if n := jobNum(id); n > e.seq {
			e.seq = n
		}
		switch rec.State {
		case api.JobDone, api.JobFailed, api.JobCancelled:
			e.jobs[id] = recordJob(rec)
		default:
			plan, err := e.opts.Resolve(rec.Request)
			if err != nil {
				// The spec validated once but no longer resolves (e.g. a
				// kernel renamed across versions): fail it loudly rather
				// than resubmitting forever.
				j := recordJob(rec)
				j.state = api.JobFailed
				j.jobErr = &api.Error{Code: api.CodeBadRequest, Message: "resume: " + err.Error()}
				j.finished = time.Now()
				j.onDisk = false
				e.jobs[id] = j
				_ = e.persist(j)
				continue
			}
			j := e.newJob(id, plan, rec.Request, rec.Resumes+1)
			e.jobs[id] = j
			e.resumed++
			resumable = append(resumable, j)
		}
	}
	// Start resumed jobs in id order so admission is deterministic.
	sort.Slice(resumable, func(a, b int) bool { return jobNum(resumable[a].id) < jobNum(resumable[b].id) })
	for _, j := range resumable {
		_ = e.persist(j)
		e.start(j)
	}
	return nil
}
