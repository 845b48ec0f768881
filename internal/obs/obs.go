// Package obs provides lightweight observability for long simulation
// campaigns: lock-free counters a worker pool can bump from any goroutine,
// derived rates (trials/sec, periods/sec, worker utilization), publication
// of every live campaign under one expvar variable, and a periodic
// structured-log progress line.
//
// A Campaign implements trialrunner.Observer (TrialStart/TrialEnd) plus the
// engines' progress sinks (AddPeriods/AddMitigations/AddActivations), so a
// single value threads through the whole stack. Observation is one-way: a
// Campaign never feeds anything back into the simulation, so metering cannot
// perturb the bit-for-bit determinism guarantees.
package obs

import (
	"context"
	"expvar"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Campaign aggregates the counters of one simulation campaign. All methods
// are safe for concurrent use.
type Campaign struct {
	name    string
	workers int
	start   time.Time

	trialsTotal   atomic.Int64
	trialsDone    atomic.Int64
	trialsSkipped atomic.Int64
	active        atomic.Int64
	busyNanos     atomic.Int64
	periods       atomic.Int64
	mitigations   atomic.Int64
	activations   atomic.Int64
	records       atomic.Int64
	bytes         atomic.Int64

	trialRetries      atomic.Int64
	checkpointRetries atomic.Int64
	engineFallbacks   atomic.Int64
	quarantined       atomic.Int64

	jobsSubmitted atomic.Int64
	jobsQueued    atomic.Int64
	jobsRunning   atomic.Int64
	jobRetries    atomic.Int64
	jobsDrained   atomic.Int64
	cacheHits     atomic.Int64
}

// NewCampaign returns a Campaign named name, expecting totalTrials trials on
// a pool of `workers` goroutines (workers scales the utilization metric;
// pass the -workers value).
func NewCampaign(name string, totalTrials, workers int) *Campaign {
	if workers < 1 {
		workers = 1
	}
	c := &Campaign{name: name, workers: workers, start: time.Now()}
	c.trialsTotal.Store(int64(totalTrials))
	return c
}

// Name returns the campaign name.
func (c *Campaign) Name() string { return c.name }

// TrialStart implements trialrunner.Observer.
func (c *Campaign) TrialStart(int) { c.active.Add(1) }

// TrialEnd implements trialrunner.Observer.
func (c *Campaign) TrialEnd(_ int, d time.Duration) {
	c.active.Add(-1)
	c.trialsDone.Add(1)
	c.busyNanos.Add(int64(d))
}

// SkipTrials records n trials restored from a checkpoint rather than
// executed, so a resumed campaign's progress fraction starts where the
// interrupted run left off.
func (c *Campaign) SkipTrials(n int) { c.trialsSkipped.Add(int64(n)) }

// AddPeriods records n simulated tREFI periods (the loss, rounds and TTF
// campaigns report them on trialrunner.Options.Progress).
func (c *Campaign) AddPeriods(n int64) { c.periods.Add(n) }

// AddMitigations records n mitigations issued.
func (c *Campaign) AddMitigations(n int64) { c.mitigations.Add(n) }

// AddActivations records n simulated demand activations.
func (c *Campaign) AddActivations(n int64) { c.activations.Add(n) }

// AddRecords records n trace records demuxed by a replay frontend.
func (c *Campaign) AddRecords(n int64) { c.records.Add(n) }

// AddBytes records n trace bytes consumed by a replay frontend.
func (c *Campaign) AddBytes(n int64) { c.bytes.Add(n) }

// AddTrialRetries records n retried trial attempts (trialrunner's retry
// policy re-executing a panicked/errored trial).
func (c *Campaign) AddTrialRetries(n int64) { c.trialRetries.Add(n) }

// AddCheckpointRetries records n retried checkpoint writes (transient I/O
// errors absorbed by the checkpoint writer's backoff loop).
func (c *Campaign) AddCheckpointRetries(n int64) { c.checkpointRetries.Add(n) }

// AddEngineFallbacks records n trials re-run on the exact reference engine
// after a self-check guard or gap-accounting trip on the event engine.
func (c *Campaign) AddEngineFallbacks(n int64) { c.engineFallbacks.Add(n) }

// AddQuarantined records n trials whose retry budget was exhausted.
func (c *Campaign) AddQuarantined(n int64) { c.quarantined.Add(n) }

// Job-lifecycle counters, bumped by the campaign server daemon. A campaign
// tracking a server's job queue uses JobQueued/JobStarted/JobFinished to keep
// the queued and running gauges consistent; the remaining counters are
// monotone tallies.

// JobQueued records a job accepted onto the queue.
func (c *Campaign) JobQueued() {
	c.jobsSubmitted.Add(1)
	c.jobsQueued.Add(1)
}

// JobStarted records a job moving from the queue to a worker.
func (c *Campaign) JobStarted() {
	c.jobsQueued.Add(-1)
	c.jobsRunning.Add(1)
}

// JobFinished records a running job reaching a terminal state (done, failed,
// or resumable).
func (c *Campaign) JobFinished() { c.jobsRunning.Add(-1) }

// AddJobRetries records n retried job attempts (the server's per-job backoff
// loop re-running a failed job).
func (c *Campaign) AddJobRetries(n int64) { c.jobRetries.Add(n) }

// AddJobsDrained records n in-flight jobs checkpointed and marked resumable
// by a graceful shutdown.
func (c *Campaign) AddJobsDrained(n int64) { c.jobsDrained.Add(n) }

// AddCacheHits records n submissions served from the result cache without
// recompute.
func (c *Campaign) AddCacheHits(n int64) { c.cacheHits.Add(n) }

// Snapshot is a point-in-time view of a campaign with derived rates.
type Snapshot struct {
	Name           string  `json:"name"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	TrialsTotal    int64   `json:"trials_total"`
	TrialsDone     int64   `json:"trials_done"`
	TrialsSkipped  int64   `json:"trials_skipped"`
	ActiveWorkers  int64   `json:"active_workers"`
	Periods        int64   `json:"periods"`
	Mitigations    int64   `json:"mitigations"`
	Activations    int64   `json:"activations"`
	// Throughput counters of trace-driven replays: demuxed records and
	// their byte volume. Both zero outside a replay campaign.
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
	// Resilience counters: retries absorbed, fallbacks taken, trials given
	// up on. All zero in a healthy undisturbed run.
	TrialRetries      int64 `json:"trial_retries"`
	CheckpointRetries int64 `json:"checkpoint_retries"`
	EngineFallbacks   int64 `json:"engine_fallbacks"`
	Quarantined       int64 `json:"quarantined"`
	// Job-lifecycle counters of a campaign server daemon. All zero outside
	// pride-serve.
	JobsSubmitted int64   `json:"jobs_submitted"`
	JobsQueued    int64   `json:"jobs_queued"`
	JobsRunning   int64   `json:"jobs_running"`
	JobRetries    int64   `json:"job_retries"`
	JobsDrained   int64   `json:"jobs_drained"`
	CacheHits     int64   `json:"cache_hits"`
	TrialsPerSec  float64 `json:"trials_per_sec"`
	PeriodsPerSec float64 `json:"periods_per_sec"`
	RecordsPerSec float64 `json:"records_per_sec"`
	MBPerSec      float64 `json:"mb_per_sec"`
	// Utilization is busy-worker time over elapsed wall-clock time times the
	// pool width: 1.0 means every worker computed the whole time.
	Utilization float64 `json:"utilization"`
}

// Snapshot captures the current state.
func (c *Campaign) Snapshot() Snapshot {
	elapsed := time.Since(c.start)
	s := Snapshot{
		Name:           c.name,
		ElapsedSeconds: elapsed.Seconds(),
		TrialsTotal:    c.trialsTotal.Load(),
		TrialsDone:     c.trialsDone.Load(),
		TrialsSkipped:  c.trialsSkipped.Load(),
		ActiveWorkers:  c.active.Load(),
		Periods:        c.periods.Load(),
		Mitigations:    c.mitigations.Load(),
		Activations:    c.activations.Load(),
		Records:        c.records.Load(),
		Bytes:          c.bytes.Load(),

		TrialRetries:      c.trialRetries.Load(),
		CheckpointRetries: c.checkpointRetries.Load(),
		EngineFallbacks:   c.engineFallbacks.Load(),
		Quarantined:       c.quarantined.Load(),

		JobsSubmitted: c.jobsSubmitted.Load(),
		JobsQueued:    c.jobsQueued.Load(),
		JobsRunning:   c.jobsRunning.Load(),
		JobRetries:    c.jobRetries.Load(),
		JobsDrained:   c.jobsDrained.Load(),
		CacheHits:     c.cacheHits.Load(),
	}
	if sec := elapsed.Seconds(); sec > 0 {
		s.TrialsPerSec = float64(s.TrialsDone) / sec
		s.PeriodsPerSec = float64(s.Periods) / sec
		s.RecordsPerSec = float64(s.Records) / sec
		s.MBPerSec = float64(s.Bytes) / (1e6 * sec)
		s.Utilization = float64(c.busyNanos.Load()) / (float64(elapsed) * float64(c.workers))
	}
	return s
}

// Line renders the snapshot as one structured key=value progress line, the
// format the CLIs emit to stderr.
func (s Snapshot) Line() string {
	line := fmt.Sprintf(
		"progress campaign=%s elapsed=%.1fs trials=%d/%d skipped=%d trials_per_sec=%.2f periods=%d periods_per_sec=%.3g mitigations=%d activations=%d active_workers=%d util=%.2f",
		s.Name, s.ElapsedSeconds, s.TrialsDone+s.TrialsSkipped, s.TrialsTotal, s.TrialsSkipped,
		s.TrialsPerSec, s.Periods, s.PeriodsPerSec, s.Mitigations, s.Activations,
		s.ActiveWorkers, s.Utilization)
	// Replay throughput keys appear only when a trace frontend is feeding
	// the campaign, so non-replay campaign lines stay byte-identical to
	// what they were before the replay pipeline existed.
	if s.Records != 0 {
		line += fmt.Sprintf(" records=%d records_per_sec=%.3g mb_per_sec=%.2f",
			s.Records, s.RecordsPerSec, s.MBPerSec)
	}
	// Resilience keys appear only once something went wrong, so the healthy
	// line stays compact and a non-clean run is visible at a glance.
	if s.TrialRetries != 0 || s.CheckpointRetries != 0 || s.EngineFallbacks != 0 || s.Quarantined != 0 {
		line += fmt.Sprintf(" trial_retries=%d checkpoint_retries=%d engine_fallbacks=%d quarantined=%d",
			s.TrialRetries, s.CheckpointRetries, s.EngineFallbacks, s.Quarantined)
	}
	// Job-lifecycle keys appear only on a campaign that has accepted jobs
	// (the pride-serve daemon), so CLI campaign lines are untouched.
	if s.JobsSubmitted != 0 {
		line += fmt.Sprintf(" jobs=%d queued=%d running=%d job_retries=%d drained=%d cache_hits=%d",
			s.JobsSubmitted, s.JobsQueued, s.JobsRunning, s.JobRetries, s.JobsDrained, s.CacheHits)
	}
	return line
}

// Line renders the campaign's current progress line.
func (c *Campaign) Line() string { return c.Snapshot().Line() }

// The expvar surface: every published campaign appears as one entry of the
// "pride.campaigns" variable, a JSON object keyed by campaign name. A
// process that imports net/http/pprof or expvar's handler exposes it at
// /debug/vars; tests and embedders read it via expvar.Get.
var (
	publishOnce sync.Once
	regMu       sync.Mutex
	registry    = map[string]*Campaign{}
)

// Publish registers the campaign under the "pride.campaigns" expvar.
// Publishing a second campaign with the same name replaces the first
// (latest wins), so repeated CLI invocations in one process stay sane.
func (c *Campaign) Publish() {
	publishOnce.Do(func() {
		expvar.Publish("pride.campaigns", expvar.Func(func() any {
			regMu.Lock()
			defer regMu.Unlock()
			out := make(map[string]Snapshot, len(registry))
			for name, camp := range registry {
				out[name] = camp.Snapshot()
			}
			return out
		}))
	})
	regMu.Lock()
	registry[c.name] = c
	regMu.Unlock()
}

// Unpublish removes the campaign from the expvar surface.
func (c *Campaign) Unpublish() {
	regMu.Lock()
	delete(registry, c.name)
	regMu.Unlock()
}

// StartReporter emits the campaign's progress line to w every `every` until
// ctx is done or the returned stop function is called. Stop blocks until the
// reporter goroutine has exited, so no line lands on w after it returns. The
// final line is NOT emitted on stop — callers that want a completion summary
// print c.Line() themselves, so the summary lands after the run's own
// output.
func (c *Campaign) StartReporter(ctx context.Context, w io.Writer, every time.Duration) (stop func()) {
	if every <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	var once sync.Once
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-done:
				return
			case <-t.C:
				fmt.Fprintln(w, c.Line())
			}
		}
	}()
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}
