package trialrunner

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pride/internal/engine"
)

// PanicError reports a trial that panicked. The pool recovers the panic on
// the worker goroutine, so one faulty trial surfaces as an error result from
// Map instead of killing the whole process (and, for a checkpointed
// campaign, instead of losing every completed trial).
type PanicError struct {
	// Trial is the index of the trial that panicked.
	Trial int
	// Value is the recovered panic value.
	Value any
	// Stack is the worker's stack at recovery time.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("trialrunner: trial %d panicked: %v", e.Trial, e.Value)
}

// Unwrap exposes a panic value that was itself an error (a guard.Violation,
// an injected fault), so errors.As sees through the panic wrapper.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// TrialFailure reports a trial whose every attempt failed. With the default
// single-attempt policy the pool reports the bare underlying error instead;
// TrialFailure appears only when a retry budget was actually exhausted.
type TrialFailure struct {
	// Trial is the index of the failed trial.
	Trial int
	// Attempts is how many attempts were made.
	Attempts int
	// Err is the last attempt's error (*PanicError, *DeadlineError, or an
	// injected fault).
	Err error
}

// Error implements error.
func (e *TrialFailure) Error() string {
	return fmt.Sprintf("trialrunner: trial %d failed after %d attempts: %v", e.Trial, e.Attempts, e.Err)
}

// Unwrap exposes the last attempt's error.
func (e *TrialFailure) Unwrap() error { return e.Err }

// QuarantineError summarises the trials that exhausted their retry budget in
// one run. It is joined into the final error after the per-trial failures,
// so callers can list the quarantined set without walking the join.
type QuarantineError struct {
	// Trials holds the quarantined trial indices in ascending order.
	Trials []int
}

// Error implements error.
func (e *QuarantineError) Error() string {
	return fmt.Sprintf("trialrunner: %d trial(s) quarantined after exhausting retries: %v", len(e.Trials), e.Trials)
}

// DeadlineError reports a trial attempt that ran longer than the per-trial
// deadline. The check is post-completion: the attempt runs to the end (so
// shared scratch arenas are never abandoned mid-use) and its wall-clock
// duration is compared afterwards, making the deadline a detector for
// wedged-but-terminating trials rather than a preemption mechanism.
type DeadlineError struct {
	// Trial is the index of the slow trial.
	Trial int
	// Elapsed is the attempt's measured duration.
	Elapsed time.Duration
	// Deadline is the configured limit it exceeded.
	Deadline time.Duration
}

// Error implements error.
func (e *DeadlineError) Error() string {
	return fmt.Sprintf("trialrunner: trial %d exceeded deadline: ran %v > %v", e.Trial, e.Elapsed, e.Deadline)
}

// RetryPolicy bounds re-execution of failed trial attempts. Because every
// trial derives its RNG stream from its trial index (not from execution
// order), a retried attempt replays the identical stream: a transient fault
// (an injected one, a flaky hook) retries to the exact result the
// undisturbed run produces, and a deterministic bug fails every attempt and
// quarantines the trial instead of flaking.
type RetryPolicy struct {
	// Attempts is the total number of attempts per trial (>= 1).
	// 0 means 1: a single attempt, no retry.
	Attempts int
	// Deadline, when > 0, fails any attempt whose wall-clock duration
	// exceeds it (post-completion check, see DeadlineError).
	Deadline time.Duration
	// Backoff, when > 0, is the pause before the first retry, doubling per
	// subsequent attempt up to MaxBackoff. Zero keeps the historic
	// immediate-retry behavior. Backoff only delays execution — it never
	// feeds into trial RNG streams, so it cannot perturb results.
	Backoff time.Duration
	// MaxBackoff caps the doubling. Zero means no cap.
	MaxBackoff time.Duration
}

// Retries returns the policy that retries a failed trial n times (n+1
// attempts); n <= 0 keeps one attempt. It maps every user-facing retry count
// (-trial-retries, a daemon spec's trial_retries) to attempts.
func Retries(n int) RetryPolicy {
	if n <= 0 {
		return RetryPolicy{}
	}
	return RetryPolicy{Attempts: n + 1}
}

func (p RetryPolicy) attempts() int {
	if p.Attempts < 1 {
		return 1
	}
	return p.Attempts
}

// BackoffFor returns the pause before attempt number `attempt` (attempt 1 is
// the first retry): Backoff doubled attempt-1 times, capped at MaxBackoff.
// Zero for attempt < 1 or a zero Backoff. The campaign server reuses this at
// the job level, layering deterministic jitter on top.
func (p RetryPolicy) BackoffFor(attempt int) time.Duration {
	if attempt < 1 || p.Backoff <= 0 {
		return 0
	}
	d := p.Backoff
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		return p.MaxBackoff
	}
	return d
}

// TrialFaults is the pool's fault-injection hook (faultinject.Injector
// implements it). When armed, it is consulted before every attempt; a
// non-nil error fails the attempt before the trial function runs. A fault
// value exposing Panics() true is raised as a panic through the pool's real
// recover machinery instead, so chaos tests exercise the same code path a
// genuine trial panic does.
type TrialFaults interface {
	TrialFault(trial, attempt int) error
}

// retryReporter and quarantineReporter are optional observer capabilities,
// discovered structurally (obs.Campaign implements both): retries and
// quarantines are reported to whatever observer the campaign installed
// without widening the Observer interface every existing implementation
// must satisfy.
type retryReporter interface{ AddTrialRetries(n int64) }
type quarantineReporter interface{ AddQuarantined(n int64) }

// Observer receives per-trial lifecycle callbacks for progress metering
// (internal/obs implements it). Callbacks fire on worker goroutines,
// concurrently; implementations must be safe for concurrent use. The
// callbacks carry no results and cannot influence them, so observation never
// perturbs determinism.
type Observer interface {
	// TrialStart fires just before trial i runs.
	TrialStart(trial int)
	// TrialEnd fires after trial i finishes (normally or by panic) with its
	// wall-clock duration.
	TrialEnd(trial int, d time.Duration)
}

// Options configures a campaign — the one options type every campaign kind
// in this repository takes. The zero value means DefaultWorkers(), no
// checkpoint, no metering, the exact engine, one attempt per trial and no
// faults. Map consumes Workers, Checkpoint, Observer, Retry and Faults; the
// campaign owning the trial function consumes Progress (via AddPeriods and
// its siblings), Engine and SelfCheck (via Guarded).
type Options struct {
	// Workers is the pool size (>= 1); 0 selects DefaultWorkers(). It never
	// affects a result, only how fast it arrives.
	Workers int
	// Checkpoint enables durable resume when its Path is set. Campaigns
	// fill an empty Key with their canonical key (configuration + seed,
	// never the worker count), so a resume is safe across worker counts but
	// rejected across configurations.
	Checkpoint Checkpoint
	// Progress, when non-nil, receives coarse counters, each an optional
	// capability discovered structurally (internal/obs.Campaign has them
	// all). Observation only: a sink never perturbs a result.
	Progress any
	// Observer, when non-nil, receives TrialStart/TrialEnd callbacks.
	Observer Observer
	// Engine selects the simulation engine of stochastic campaigns. The
	// engines are statistically, not bit-for-bit, equivalent, so campaign
	// keys embed it and a checkpoint never resumes across a switch.
	Engine engine.Kind
	// SelfCheck enables runtime invariant guards in the simulation engines
	// (-selfcheck).
	SelfCheck bool
	// Retry bounds re-execution of failed trials; the zero value makes
	// failure terminal after one attempt.
	Retry RetryPolicy
	// Faults, when non-nil, injects deterministic faults into trials,
	// checkpoint I/O and engine guards (chaos testing;
	// faultinject.Injector implements it).
	Faults TrialFaults

	// skip, set only by the checkpoint layer, reports that trial i was
	// restored from the checkpoint and must not run (its slot stays zero
	// and gets no onDone call).
	skip func(i int) bool
}

// workers resolves the pool size.
func (o Options) workers() int {
	if o.Workers == 0 {
		return DefaultWorkers()
	}
	return o.Workers
}

// PoolSize returns the number of distinct worker indices a run over the
// given trial count will use: the resolved pool size, clamped to the trial
// count. Engines that keep per-worker scratch state size their scratch
// slices with this before calling Map.
func (o Options) PoolSize(trials int) int {
	w := o.workers()
	if err := ValidateWorkers(w); err != nil {
		panic(err)
	}
	if trials >= 1 && w > trials {
		w = trials
	}
	return w
}

// mapPool is Map without the checkpoint layer: the worker pool itself.
// Trials opts.skip reports complete are not executed and stay zero.
func mapPool[R any](ctx context.Context, trials int, trial func(worker, i int) R, onDone func(i int, r R) error, opts Options) ([]R, error) {
	workers := opts.workers()
	if err := ValidateWorkers(workers); err != nil {
		panic(err)
	}
	if trials < 0 {
		panic(fmt.Sprintf("trialrunner: trials must be >= 0, got %d", trials))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]R, trials)
	if trials == 0 {
		return results, nil
	}
	if workers > trials {
		workers = trials
	}

	var (
		mu       sync.Mutex
		failures []TrialFailure
		hookErr  error
		stopped  atomic.Bool // set on hook error; ctx handles cancellation
		next     atomic.Int64
		wg       sync.WaitGroup
	)

	// runAttempt executes one attempt of trial i and reports how it failed,
	// nil on success. Injected faults fire before the trial function; a
	// panic-kind fault is raised through the same recover machinery a real
	// trial panic uses.
	runAttempt := func(worker, i, attempt int) (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = &PanicError{Trial: i, Value: v, Stack: debug.Stack()}
			}
		}()
		if opts.Faults != nil {
			if f := opts.Faults.TrialFault(i, attempt); f != nil {
				if p, ok := f.(interface{ Panics() bool }); ok && p.Panics() {
					panic(f)
				}
				return f
			}
		}
		results[i] = trial(worker, i)
		return nil
	}

	maxAttempts := opts.Retry.attempts()

	runOne := func(worker, i int) {
		if opts.Observer != nil {
			opts.Observer.TrialStart(i)
		}
		start := time.Now()
		var lastErr error
		attempts := 0
		for a := 0; a < maxAttempts; a++ {
			attempts = a + 1
			attemptStart := time.Now()
			aErr := runAttempt(worker, i, a)
			if aErr == nil && opts.Retry.Deadline > 0 {
				if el := time.Since(attemptStart); el > opts.Retry.Deadline {
					aErr = &DeadlineError{Trial: i, Elapsed: el, Deadline: opts.Retry.Deadline}
				}
			}
			if aErr == nil {
				lastErr = nil
				break
			}
			lastErr = aErr
			if a+1 < maxAttempts {
				if rr, ok := opts.Observer.(retryReporter); ok {
					rr.AddTrialRetries(1)
				}
				if d := opts.Retry.BackoffFor(a + 1); d > 0 {
					select {
					case <-ctx.Done():
					case <-time.After(d):
					}
				}
			}
		}
		if opts.Observer != nil {
			opts.Observer.TrialEnd(i, time.Since(start))
		}
		mu.Lock()
		defer mu.Unlock()
		if lastErr != nil {
			failures = append(failures, TrialFailure{Trial: i, Attempts: attempts, Err: lastErr})
			if maxAttempts > 1 {
				if qr, ok := opts.Observer.(quarantineReporter); ok {
					qr.AddQuarantined(1)
				}
			}
			return
		}
		if onDone != nil && hookErr == nil {
			if err := onDone(i, results[i]); err != nil {
				hookErr = err
				stopped.Store(true)
			}
		}
	}

	loop := func(worker int) {
		for {
			if stopped.Load() || ctx.Err() != nil {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= trials {
				return
			}
			if opts.skip != nil && opts.skip(i) {
				continue
			}
			runOne(worker, i)
		}
	}

	if workers == 1 {
		loop(0)
	} else {
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(worker int) {
				defer wg.Done()
				loop(worker)
			}(w)
		}
		wg.Wait()
	}

	// Assemble a deterministic error: failures sorted by trial index, then
	// the quarantine summary, then the hook error, then the cancellation
	// cause. Single-attempt failures surface as their bare underlying error
	// (historically a *PanicError); only an exhausted retry budget wraps
	// the error in a *TrialFailure and lists the trial as quarantined.
	sort.Slice(failures, func(a, b int) bool { return failures[a].Trial < failures[b].Trial })
	errs := make([]error, 0, len(failures)+3)
	var quarantined []int
	for i := range failures {
		f := &failures[i]
		if maxAttempts > 1 {
			errs = append(errs, f)
			quarantined = append(quarantined, f.Trial)
		} else {
			errs = append(errs, f.Err)
		}
	}
	if len(quarantined) > 0 {
		errs = append(errs, &QuarantineError{Trials: quarantined})
	}
	if hookErr != nil {
		errs = append(errs, hookErr)
	}
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return results, errors.Join(errs...)
}
