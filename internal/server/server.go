// Package server implements the pride-serve campaign daemon: an HTTP/JSON
// front end that validates campaign specs into the existing config structs
// and runs them on a bounded job queue with a fault-tolerant lifecycle.
//
// The robustness contract:
//
//   - Jobs are cached by the campaign's canonical checkpoint key: a repeat
//     submission with the same config+seed is served from the result store
//     without recompute, and a submission whose previous run was interrupted
//     resumes from its persisted checkpoint instead of restarting.
//   - Failed jobs retry with exponential backoff plus deterministic
//     per-job jitter (trialrunner.RetryPolicy semantics lifted to the job
//     level); each attempt runs under an optional deadline, and because
//     campaigns checkpoint as they go, a timed-out attempt's completed
//     trials survive into the next attempt — progress is monotone.
//   - SIGTERM drains gracefully: /readyz flips to 503, new submissions are
//     rejected, in-flight campaigns checkpoint and their jobs are reported
//     resumable. Since results are pure functions of the spec, a kill at
//     ANY point followed by a resume is bit-identical to an undisturbed
//     run.
//   - Every failure path is chaos-testable via the faultinject sites
//     server.enqueue, job.run, job.result-write and trace.read.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pride/internal/faultinject"
	"pride/internal/obs"
	"pride/internal/rng"
	"pride/internal/trialrunner"
)

// Job states. A job is born queued, moves to running on a worker, and ends
// done (result persisted), failed (retry budget exhausted) or resumable
// (interrupted by a drain; resubmitting the same spec resumes it from its
// checkpoint).
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateResumable = "resumable"
)

// Config parameterizes a Server. The zero value of every field selects a
// sensible default; only DataDir is required.
type Config struct {
	// DataDir roots the server's durable state: results/ (the cache) and
	// checkpoints/ (in-flight campaign progress).
	DataDir string
	// QueueDepth bounds the job queue (default 64). A full queue rejects
	// submissions with 503 rather than queueing unboundedly.
	QueueDepth int
	// JobWorkers is the number of concurrent jobs (default 2). Each job
	// runs its campaign on its own trial-worker pool.
	JobWorkers int
	// CampaignWorkers is the per-campaign trial pool size (0 selects
	// trialrunner.DefaultWorkers()). A spec's workers field overrides it
	// per job. Never affects results.
	CampaignWorkers int
	// JobRetry bounds per-job re-execution: Attempts total attempts
	// (default 3), Backoff the first retry's pause (default 100ms,
	// doubling, capped by MaxBackoff default 5s), Deadline the per-attempt
	// wall-clock limit (0 disables). Deterministic per-job jitter in
	// [0, backoff/2) is layered on top.
	JobRetry trialrunner.RetryPolicy
	// RateLimit is the per-client token refill rate in requests/second
	// (0 disables). RateBurst is the bucket depth (default 10).
	RateLimit float64
	RateBurst int
	// Faults, when non-nil, injects deterministic faults into the server
	// sites and is threaded into every campaign (chaos testing).
	Faults *faultinject.Injector
	// Log, when non-nil, receives one structured line per job state
	// change.
	Log io.Writer
}

func (c Config) queueDepth() int {
	if c.QueueDepth < 1 {
		return 64
	}
	return c.QueueDepth
}

func (c Config) jobWorkers() int {
	if c.JobWorkers < 1 {
		return 2
	}
	return c.JobWorkers
}

func (c Config) jobRetry() trialrunner.RetryPolicy {
	p := c.JobRetry
	if p.Attempts < 1 {
		p.Attempts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = 100 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 5 * time.Second
	}
	return p
}

// Job is the server-side record of one submitted campaign.
type Job struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Key      string `json:"key"`
	State    string `json:"state"`
	Attempts int    `json:"attempts,omitempty"`
	// Cached reports the job was served from the result store without
	// recompute.
	Cached bool            `json:"cached,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`

	spec      Spec
	prep      prepared
	submitIdx int
}

// view snapshots the job for JSON responses. Callers hold s.mu.
func (j *Job) view() Job {
	return Job{
		ID: j.ID, Kind: j.Kind, Key: j.Key, State: j.State,
		Attempts: j.Attempts, Cached: j.Cached, Error: j.Error, Result: j.Result,
	}
}

// Server runs the campaign job queue and its HTTP API.
type Server struct {
	cfg     Config
	retry   trialrunner.RetryPolicy
	camp    *obs.Campaign
	store   *resultStore
	lim     *limiter
	mux     *http.ServeMux
	ckptDir string

	runCtx    context.Context
	cancelRun context.CancelFunc
	wg        sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	queue    chan *Job
	draining bool
	nextIdx  int
	drained  int
}

// New builds a Server rooted at cfg.DataDir. Call Start to launch the
// worker pool, Handler for the HTTP surface, and Drain to shut down.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("server: Config.DataDir is required")
	}
	store, err := newResultStore(filepath.Join(cfg.DataDir, "results"), cfg.Faults)
	if err != nil {
		return nil, err
	}
	ckptDir := filepath.Join(cfg.DataDir, "checkpoints")
	if err := os.MkdirAll(ckptDir, 0o777); err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		retry:     cfg.jobRetry(),
		camp:      obs.NewCampaign("serve", 0, cfg.jobWorkers()),
		store:     store,
		lim:       newLimiter(cfg.RateLimit, cfg.RateBurst),
		ckptDir:   ckptDir,
		runCtx:    runCtx,
		cancelRun: cancel,
		jobs:      map[string]*Job{},
		queue:     make(chan *Job, cfg.queueDepth()),
	}
	s.camp.Publish()
	s.mux = s.routes()
	return s, nil
}

// Campaign returns the server's obs meter (job-lifecycle counters included),
// for wiring a progress reporter.
func (s *Server) Campaign() *obs.Campaign { return s.camp }

// Start launches the job workers.
func (s *Server) Start() {
	for i := 0; i < s.cfg.jobWorkers(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Drain shuts the server down gracefully: new submissions are rejected and
// /readyz flips to 503, in-flight campaigns are cancelled (they finish
// their in-flight trials and checkpoint), and every interrupted job is
// marked resumable. It blocks until the workers have exited and returns how
// many jobs were interrupted — the daemon's exit code is 130 when nonzero,
// matching the CLI interruption convention.
func (s *Server) Drain() int {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.cancelRun()
	s.wg.Wait()
	s.camp.Unpublish()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drained
}

// Draining reports whether a drain has started.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, format+"\n", args...)
	}
}

// worker pulls jobs off the queue until it closes on drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// setState transitions a job, logging the change.
func (s *Server) setState(j *Job, state string) {
	s.mu.Lock()
	j.State = state
	s.mu.Unlock()
	s.logf("job id=%s kind=%s state=%s attempts=%d", j.ID, j.Kind, state, j.Attempts)
}

// markResumable records an interrupted job: its checkpoint (if any trials
// completed) stays on disk keyed by the job ID, so resubmitting the same
// spec resumes instead of restarting.
func (s *Server) markResumable(j *Job) {
	s.mu.Lock()
	j.State = StateResumable
	j.Error = "interrupted by drain; resubmit the same spec to resume from its checkpoint"
	s.drained++
	s.mu.Unlock()
	s.camp.AddJobsDrained(1)
	s.logf("job id=%s kind=%s state=%s attempts=%d", j.ID, j.Kind, StateResumable, j.Attempts)
}

// runJob drives one job through the retry lifecycle.
func (s *Server) runJob(j *Job) {
	s.camp.JobStarted()
	defer s.camp.JobFinished()
	if s.runCtx.Err() != nil {
		// Drained while still queued: nothing ran, nothing checkpointed;
		// resubmission simply runs it.
		s.markResumable(j)
		return
	}
	s.setState(j, StateRunning)
	seed := jobSeed(j.Key)
	maxAttempts := s.retry.Attempts
	var lastErr error
	for a := 0; a < maxAttempts; a++ {
		if a > 0 {
			s.camp.AddJobRetries(1)
			if !s.backoff(seed, a) {
				s.markResumable(j)
				return
			}
		}
		s.mu.Lock()
		j.Attempts = a + 1
		s.mu.Unlock()
		res, err := s.attempt(j, a)
		if err == nil {
			if perr := s.store.Put(j.Key, j.Kind, res); perr != nil {
				// The campaign completed but the result didn't land; the
				// store already retried with backoff, so treat it like any
				// other attempt failure. The campaign's own checkpoint was
				// removed on success, so the re-run recomputes — correctness
				// over speed on a failing disk.
				lastErr = perr
				continue
			}
			raw, _ := json.Marshal(res)
			s.mu.Lock()
			j.Result = raw
			j.Error = ""
			j.State = StateDone
			s.mu.Unlock()
			s.logf("job id=%s kind=%s state=%s attempts=%d", j.ID, j.Kind, StateDone, j.Attempts)
			return
		}
		if s.runCtx.Err() != nil {
			s.markResumable(j)
			return
		}
		lastErr = err
		s.logf("job id=%s kind=%s attempt=%d err=%q", j.ID, j.Kind, a+1, err)
	}
	s.mu.Lock()
	j.State = StateFailed
	j.Error = fmt.Sprintf("failed after %d attempt(s): %v", maxAttempts, lastErr)
	s.mu.Unlock()
	s.logf("job id=%s kind=%s state=%s attempts=%d err=%q", j.ID, j.Kind, StateFailed, maxAttempts, lastErr)
}

// backoff sleeps the exponential pause before retry attempt a, with
// deterministic per-job jitter in [0, pause/2) derived from the job key —
// reproducible run-to-run, no shared RNG, no thundering herd. Returns false
// when the drain interrupted the sleep.
func (s *Server) backoff(seed uint64, attempt int) bool {
	d := s.retry.BackoffFor(attempt)
	if d <= 0 {
		return true
	}
	jitter := time.Duration(rng.Derived(seed, uint64(attempt)).Float64() * float64(d) / 2)
	t := time.NewTimer(d + jitter)
	defer t.Stop()
	select {
	case <-s.runCtx.Done():
		return false
	case <-t.C:
		return true
	}
}

// attempt executes one attempt of the job's campaign. The job.run fault
// site is consulted first (a panic-kind fault is raised through the same
// recover machinery a genuine campaign panic uses); the campaign then runs
// under the per-attempt deadline with its checkpoint keyed by the job ID.
func (s *Server) attempt(j *Job, a int) (res any, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("server: job %s panicked: %v", j.ID, v)
		}
	}()
	if s.cfg.Faults != nil {
		if f := s.cfg.Faults.JobFault(j.submitIdx, a); f != nil {
			if p, ok := f.(interface{ Panics() bool }); ok && p.Panics() {
				panic(f)
			}
			return nil, f
		}
	}
	actx := s.runCtx
	cancel := context.CancelFunc(func() {})
	if s.retry.Deadline > 0 {
		actx, cancel = context.WithTimeout(actx, s.retry.Deadline)
	}
	defer cancel()
	workers := j.spec.Workers
	if workers == 0 {
		workers = s.cfg.CampaignWorkers
	}
	opts := trialrunner.Options{
		Workers:    workers,
		Checkpoint: trialrunner.Checkpoint{Path: filepath.Join(s.ckptDir, j.ID+".ckpt")},
		Progress:   s.camp,
		Observer:   s.camp,
		Retry:      trialrunner.Retries(j.spec.TrialRetries),
	}
	if s.cfg.Faults != nil {
		opts.Faults = s.cfg.Faults
	}
	res, err = j.prep.run(actx, opts)
	if err != nil && s.runCtx.Err() == nil && errors.Is(actx.Err(), context.DeadlineExceeded) {
		// The attempt's own deadline fired, not a drain. The campaign
		// checkpointed its completed trials on the way out, so the retry
		// resumes rather than restarting — attempts make monotone progress.
		err = fmt.Errorf("server: job %s attempt %d hit the %v deadline: %w", j.ID, a+1, s.retry.Deadline, err)
	}
	return res, err
}

// routes builds the HTTP surface.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	// The expvar surface: pride.campaigns (the obs registry, this server's
	// "serve" campaign included) plus the runtime defaults.
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
}

// handleSubmit accepts a campaign spec, files it under its canonical cache
// key, and returns the job — possibly already done (cache hit), possibly
// pre-existing (idempotent resubmission), freshly queued otherwise.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.lim.Allow(clientID(r)) {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "rate limit exceeded"})
		return
	}
	var spec Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("decoding spec: %v", err)})
		return
	}
	prep, err := spec.prepare()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	id := jobID(prep.key)

	// Serve from the result cache: same config+seed, no recompute. The
	// check precedes the queue entirely — a cached submission costs one
	// file read even when the daemon is saturated or draining.
	if env, ok, err := s.store.Get(prep.key); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	} else if ok {
		s.camp.AddCacheHits(1)
		writeJSON(w, http.StatusOK, Job{
			ID: id, Kind: spec.Kind, Key: prep.key,
			State: StateDone, Cached: true, Result: env.Result,
		})
		return
	}

	s.mu.Lock()
	if j, ok := s.jobs[id]; ok && j.State != StateResumable && j.State != StateFailed {
		// Idempotent: an identical spec in flight returns the same job.
		v := j.view()
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, v)
		return
	}
	if s.draining {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining"})
		return
	}
	if s.cfg.Faults != nil {
		if err := s.cfg.Faults.Err(faultinject.SiteServerEnqueue); err != nil {
			s.mu.Unlock()
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
			return
		}
	}
	j := &Job{
		ID: id, Kind: spec.Kind, Key: prep.key, State: StateQueued,
		spec: spec, prep: prep, submitIdx: s.nextIdx,
	}
	select {
	case s.queue <- j:
		s.nextIdx++
		s.jobs[id] = j
		v := j.view()
		s.mu.Unlock()
		s.camp.JobQueued()
		s.logf("job id=%s kind=%s state=%s", v.ID, v.Kind, StateQueued)
		writeJSON(w, http.StatusAccepted, v)
	default:
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "job queue full"})
	}
}

// handleJob returns one job's state. Jobs completed in a previous daemon
// life are answered from the result store.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	if ok {
		v := j.view()
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, v)
		return
	}
	s.mu.Unlock()
	if env, ok, err := s.store.GetByID(id); err == nil && ok {
		writeJSON(w, http.StatusOK, Job{
			ID: id, Kind: env.Kind, Key: env.Key,
			State: StateDone, Cached: true, Result: env.Result,
		})
		return
	}
	writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown job %q", id)})
}

// handleList returns every job this daemon life has seen.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	views := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		views = append(views, j.view())
	}
	s.mu.Unlock()
	// Deterministic order for scripts and tests.
	for i := 1; i < len(views); i++ {
		for k := i; k > 0 && views[k-1].ID > views[k].ID; k-- {
			views[k-1], views[k] = views[k], views[k-1]
		}
	}
	writeJSON(w, http.StatusOK, views)
}
