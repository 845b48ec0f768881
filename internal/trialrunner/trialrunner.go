// Package trialrunner shards seeded, independent-trial experiments across a
// pool of worker goroutines with bit-for-bit deterministic merged output
// regardless of the worker count.
//
// The simulation workloads in this repository (Monte-Carlo loss estimation,
// attack-suite trials, time-to-fail sampling) all share the same structure:
// many independent trials, each driven by its own RNG stream, whose partial
// results combine through an order-insensitive-in-principle but
// order-fixed-in-practice merge (counter sums, running maxima with
// first-wins tie-breaking). Two rules make the output worker-count
// invariant:
//
//  1. Trial i derives its RNG stream from the experiment seed by index
//     (rng.DeriveSeed(base, i)), never from shared mutable state, so the
//     stream a trial consumes does not depend on which worker runs it or
//     when.
//  2. Partial results are merged strictly in trial order (0, 1, 2, ...),
//     never in completion order, so non-commutative details of the merge
//     (tie-breaking, float summation order) are fixed.
//
// With workers == 1 the runner executes every trial inline on the calling
// goroutine — the exact serial path, with no goroutines or channels — and
// any workers >= 2 produces bit-identical merged results.
package trialrunner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// DefaultWorkers returns the default pool size: runtime.NumCPU().
func DefaultWorkers() int {
	return runtime.NumCPU()
}

// ValidateWorkers reports whether a worker count is usable. CLIs surface
// this error for their -workers flag; Map panics on the same condition
// because by then it is a programmer error.
func ValidateWorkers(workers int) error {
	if workers < 1 {
		return fmt.Errorf("trialrunner: workers must be >= 1, got %d", workers)
	}
	return nil
}

// Map executes trials 0..trials-1 on a worker pool and returns their
// results indexed by trial number. The assignment of trials to workers is
// dynamic (an atomic work counter, so long trials do not stall the pool),
// but the returned slice is a pure function of the trial function — worker
// count, cancellation timing, checkpoint resumes and hooks never change the
// value any individual trial produces. On top of the pool:
//
//   - Cancellation: when ctx is cancelled the pool drains gracefully — no
//     new trials are claimed, in-flight trials run to completion (so their
//     results can still be checkpointed) — and the error wraps ctx.Err().
//   - Panic isolation: a panicking trial is recovered on its worker and
//     reported as a *PanicError in the returned error; the remaining trials
//     still run. MustPanicFree turns that back into a panic for fail-loud
//     callers.
//   - Completion hook: onDone, when non-nil, is called exactly once per
//     freshly-completed (non-restored, non-failed) trial with its result.
//     Calls are serialized under an internal mutex, in completion order. An
//     onDone error aborts the run like a cancellation (graceful drain) and
//     is included in the returned error.
//   - Checkpoint/resume: with opts.Checkpoint enabled, results already
//     recorded under its Path (same key, same trial count) are restored
//     from disk instead of re-executed. Every fresh result is appended to
//     the file, flushed and fsynced every Checkpoint.Every completions —
//     and always once more on the way out, so a cancelled run's final
//     state is on disk before Map returns. On full completion the file is
//     removed. R must round-trip through encoding/json exactly; the
//     integer-counter results in this repository all do, which is what
//     makes resumed merges bit-identical.
//
// The trial function also receives the stable index of the worker
// goroutine executing it, in [0, opts.PoolSize(trials)). Two trials that
// observe the same worker index never run concurrently, and a single-worker
// run executes every trial inline on the calling goroutine with worker index
// 0, so engines can keep one reusable scratch arena per worker index instead
// of allocating per trial. The worker index must only select scratch
// storage — never influence a trial's result — or the worker-count
// invariance the package guarantees is lost.
//
// On a nil error the result slice is complete.
func Map[R any](ctx context.Context, trials int, trial func(worker, i int) R, onDone func(i int, r R) error, opts Options) ([]R, error) {
	cp := opts.Checkpoint
	if !cp.Enabled() {
		return mapPool(ctx, trials, trial, onDone, opts)
	}
	if trials < 0 {
		panic(fmt.Sprintf("trialrunner: trials must be >= 0, got %d", trials))
	}
	if dir := filepath.Dir(cp.Path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("trialrunner: creating checkpoint directory: %w", err)
		}
	}
	faults, _ := opts.Faults.(CheckpointFaults)
	stored, err := loadCheckpoint(cp, trials, faults)
	if err != nil {
		return nil, err
	}
	if sr, ok := opts.Observer.(skipReporter); ok && len(stored) > 0 {
		sr.SkipTrials(len(stored))
	}
	var onRetry func(n int64)
	if rr, ok := opts.Observer.(checkpointRetryReporter); ok {
		onRetry = rr.AddCheckpointRetries
	}
	w, err := newCheckpointWriter(cp, trials, stored, faults, onRetry)
	if err != nil {
		return nil, err
	}

	opts.skip = func(i int) bool {
		_, ok := stored[i]
		return ok
	}
	wrapped := func(i int, r R) error {
		if err := w.record(i, r); err != nil {
			return err
		}
		if onDone != nil {
			return onDone(i, r)
		}
		return nil
	}

	results, runErr := mapPool(ctx, trials, trial, wrapped, opts)
	if cerr := w.close(); runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		return results, runErr
	}
	// Restore the skipped trials from the checkpoint before handing the
	// slice back complete.
	for i, raw := range stored {
		if err := json.Unmarshal(raw, &results[i]); err != nil {
			return results, fmt.Errorf("trialrunner: decoding checkpointed trial %d: %w", i, err)
		}
	}
	if err := os.Remove(cp.Path); err != nil {
		return results, fmt.Errorf("trialrunner: removing completed checkpoint: %w", err)
	}
	return results, nil
}

// MustPanicFree panics if err is non-nil. A *PanicError re-panics with the
// original trial's stack appended, so the process still dies with a trace
// that names the faulty trial. Callers that run a campaign without a
// cancellable context or a checkpoint (fuzz.Search, the island pool inside
// each search epoch) use it to keep a fail-loud contract.
func MustPanicFree(err error) {
	if err == nil {
		return
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		panic(fmt.Sprintf("%v\n%s", err, pe.Stack))
	}
	panic(err)
}

// Fold merges results strictly in trial order, starting from results[0].
// merge may mutate and return its first argument. The fixed order means
// merge need not be commutative: first-wins maxima and float sums come out
// bit-identical at every worker count. Requires len(results) >= 1.
func Fold[R any](results []R, merge func(acc, next R) R) R {
	if len(results) < 1 {
		panic("trialrunner: Fold requires at least one result")
	}
	acc := results[0]
	for _, r := range results[1:] {
		acc = merge(acc, r)
	}
	return acc
}
