package trialrunner

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"pride/internal/faultinject"
)

// retryObs counts the optional resilience callbacks alongside the required
// Observer pair, mirroring what obs.Campaign implements.
type retryObs struct {
	starts, ends, retries, quarantined, cpRetries atomic.Int64
}

func (o *retryObs) TrialStart(int)               { o.starts.Add(1) }
func (o *retryObs) TrialEnd(int, time.Duration)  { o.ends.Add(1) }
func (o *retryObs) AddTrialRetries(n int64)      { o.retries.Add(n) }
func (o *retryObs) AddQuarantined(n int64)       { o.quarantined.Add(n) }
func (o *retryObs) SkipTrials(n int)             {}
func (o *retryObs) AddCheckpointRetries(n int64) { o.cpRetries.Add(n) }

func TestRetryRecoversTransientErrorFault(t *testing.T) {
	const trials = 6
	want, err := Map(context.Background(), trials, cpTrial, nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	inj := faultinject.New(1)
	// Trial index 2 fails its first attempt (default Attempts = 1 leading
	// attempt); the retry replays the same trial-derived work and succeeds.
	inj.Arm(faultinject.SiteTrialErr, faultinject.Trigger{Nth: 3})
	obs := &retryObs{}
	got, err := Map(context.Background(), trials, cpTrial, nil, Options{
		Workers:  2,
		Observer: obs,
		Retry:    RetryPolicy{Attempts: 2},
		Faults:   inj,
	})
	if err != nil {
		t.Fatalf("retry did not recover the transient fault: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("retried run differs from undisturbed run:\n got %+v\nwant %+v", got, want)
	}
	if n := obs.retries.Load(); n != 1 {
		t.Fatalf("retries = %d, want 1", n)
	}
	if n := obs.quarantined.Load(); n != 0 {
		t.Fatalf("quarantined = %d, want 0", n)
	}
	if obs.starts.Load() != trials || obs.ends.Load() != trials {
		t.Fatalf("observer saw %d starts / %d ends, want %d each (once per trial, not per attempt)",
			obs.starts.Load(), obs.ends.Load(), trials)
	}
}

func TestRetryRecoversPanicKindFault(t *testing.T) {
	const trials = 4
	want, err := Map(context.Background(), trials, cpTrial, nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	inj := faultinject.New(1)
	inj.Arm(faultinject.SiteTrialPanic, faultinject.Trigger{Nth: 1, Kind: faultinject.KindPanic})
	got, err := Map(context.Background(), trials, cpTrial, nil, Options{
		Workers: 1,
		Retry:   RetryPolicy{Attempts: 2},
		Faults:  inj,
	})
	if err != nil {
		t.Fatalf("retry did not recover the injected panic: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("retried run differs from undisturbed run")
	}
	if inj.Fired(faultinject.SiteTrialPanic) == 0 {
		t.Fatal("panic fault never fired")
	}
}

func TestQuarantineAfterExhaustedRetries(t *testing.T) {
	const trials = 5
	inj := faultinject.New(1)
	// Trial index 1 fails EVERY attempt: the retry budget runs dry and the
	// trial is quarantined, while the other trials complete normally.
	inj.Arm(faultinject.SiteTrialErr, faultinject.Trigger{Nth: 2, Attempts: -1})
	obs := &retryObs{}
	got, err := Map(context.Background(), trials, cpTrial, nil, Options{
		Workers:  1,
		Observer: obs,
		Retry:    RetryPolicy{Attempts: 3},
		Faults:   inj,
	})
	if err == nil {
		t.Fatal("quarantined run returned nil error")
	}
	var tf *TrialFailure
	if !errors.As(err, &tf) {
		t.Fatalf("error does not wrap *TrialFailure: %v", err)
	}
	if tf.Trial != 1 || tf.Attempts != 3 {
		t.Fatalf("TrialFailure{Trial:%d, Attempts:%d}, want trial 1 after 3 attempts", tf.Trial, tf.Attempts)
	}
	var qe *QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("error does not wrap *QuarantineError: %v", err)
	}
	if !reflect.DeepEqual(qe.Trials, []int{1}) {
		t.Fatalf("quarantined trials = %v, want [1]", qe.Trials)
	}
	var fault *faultinject.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("error chain does not expose the injected *Fault: %v", err)
	}
	if n := obs.retries.Load(); n != 2 {
		t.Fatalf("retries = %d, want 2 (attempts 2 and 3)", n)
	}
	if n := obs.quarantined.Load(); n != 1 {
		t.Fatalf("quarantined = %d, want 1", n)
	}
	// The healthy trials' results are still intact.
	for _, i := range []int{0, 2, 3, 4} {
		if !reflect.DeepEqual(got[i], cpTrial(0, i)) {
			t.Fatalf("healthy trial %d corrupted by the quarantine", i)
		}
	}
}

func TestSingleAttemptKeepsBarePanicError(t *testing.T) {
	inj := faultinject.New(1)
	inj.Arm(faultinject.SiteTrialPanic, faultinject.Trigger{Nth: 1, Kind: faultinject.KindPanic, Attempts: -1})
	_, err := Map(context.Background(), 3, cpTrial, nil, Options{Workers: 1, Faults: inj})
	if err == nil {
		t.Fatal("faulted single-attempt run returned nil error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("single-attempt failure is not a bare *PanicError: %v", err)
	}
	var tf *TrialFailure
	if errors.As(err, &tf) {
		t.Fatal("single-attempt failure wrapped in *TrialFailure; historic bare-error contract broken")
	}
	var qe *QuarantineError
	if errors.As(err, &qe) {
		t.Fatal("single-attempt failure produced a QuarantineError")
	}
}

func TestDeadlineFailsSlowTrial(t *testing.T) {
	slow := func(_, i int) int {
		if i == 1 {
			time.Sleep(50 * time.Millisecond)
		}
		return i
	}
	_, err := Map(context.Background(), 3, slow, nil, Options{
		Workers: 1,
		Retry:   RetryPolicy{Deadline: 10 * time.Millisecond},
	})
	if err == nil {
		t.Fatal("slow trial passed its deadline")
	}
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("error does not wrap *DeadlineError: %v", err)
	}
	if de.Trial != 1 {
		t.Fatalf("DeadlineError.Trial = %d, want 1", de.Trial)
	}
	if de.Elapsed <= de.Deadline {
		t.Fatalf("DeadlineError reports elapsed %v <= deadline %v", de.Elapsed, de.Deadline)
	}
}

func TestTrialCancelSiteCancelsRun(t *testing.T) {
	inj := faultinject.New(1)
	inj.Arm(faultinject.SiteTrialCancel, faultinject.Trigger{Nth: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj.BindCancel(cancel)
	_, err := Map(ctx, 64, cpTrial, nil, Options{Workers: 1, Faults: inj})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from the trial.cancel site", err)
	}
	if inj.Fired(faultinject.SiteTrialCancel) != 1 {
		t.Fatalf("trial.cancel fired %d times, want 1", inj.Fired(faultinject.SiteTrialCancel))
	}
}

func TestRetryDeterministicAcrossWorkerCounts(t *testing.T) {
	const trials = 12
	want, err := Map(context.Background(), trials, cpTrial, nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 5} {
		inj := faultinject.New(9)
		inj.Arm(faultinject.SiteTrialErr, faultinject.Trigger{Prob: 0.5})
		got, err := Map(context.Background(), trials, cpTrial, nil, Options{
			Workers: workers,
			Retry:   RetryPolicy{Attempts: 2},
			Faults:  inj,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: chaos run differs from undisturbed run", workers)
		}
	}
}

func TestBackoffFor(t *testing.T) {
	zero := RetryPolicy{}
	if d := zero.BackoffFor(1); d != 0 {
		t.Fatalf("zero policy backs off %v", d)
	}
	p := RetryPolicy{Backoff: 10 * time.Millisecond, MaxBackoff: 35 * time.Millisecond}
	want := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 35 * time.Millisecond, 35 * time.Millisecond}
	for a, w := range want {
		if d := p.BackoffFor(a); d != w {
			t.Errorf("BackoffFor(%d) = %v, want %v", a, d, w)
		}
	}
	// No cap: pure doubling.
	unc := RetryPolicy{Backoff: time.Millisecond}
	if d := unc.BackoffFor(4); d != 8*time.Millisecond {
		t.Errorf("uncapped BackoffFor(4) = %v, want 8ms", d)
	}
}

func TestRetryBackoffDelaysRetries(t *testing.T) {
	// Two attempts with a 30ms backoff: the trial fails once, so a full run
	// must take at least one backoff.
	in := faultinject.New(1)
	in.Arm(faultinject.SiteTrialErr, faultinject.Trigger{Nth: 1})
	start := time.Now()
	_, err := Map(context.Background(), 1, func(_, i int) int { return i }, nil,
		Options{Workers: 1, Retry: RetryPolicy{Attempts: 2, Backoff: 30 * time.Millisecond}, Faults: in})
	if err != nil {
		t.Fatalf("retry did not absorb the fault: %v", err)
	}
	if el := time.Since(start); el < 30*time.Millisecond {
		t.Fatalf("run finished in %v; backoff was not applied", el)
	}
}
