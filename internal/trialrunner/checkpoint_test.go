package trialrunner

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// cpResult is a representative trial result: counters that must survive the
// JSON round trip exactly.
type cpResult struct {
	Trial  int
	Counts []uint64
}

func cpTrial(_, i int) cpResult {
	return cpResult{Trial: i, Counts: []uint64{uint64(i) * 3, 1 << uint(i%60), ^uint64(0) - uint64(i)}}
}

func cpMerge(a, b cpResult) cpResult {
	for i := range b.Counts {
		a.Counts[i] += b.Counts[i]
	}
	return a
}

func tmpCheckpoint(t *testing.T) Checkpoint {
	t.Helper()
	return Checkpoint{Path: filepath.Join(t.TempDir(), "run.ckpt"), Key: "test|seed=1"}
}

func TestRunCheckpointedCompletesAndCleansUp(t *testing.T) {
	cp := tmpCheckpoint(t)
	want := runAt(1, 17, cpTrial, cpMerge)
	results, err := Map(context.Background(), 17, cpTrial, nil, Options{Workers: 3, Checkpoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	if got := Fold(results, cpMerge); !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpointed result differs:\n got %+v\nwant %+v", got, want)
	}
	if _, err := os.Stat(cp.Path); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file not removed after completion: %v", err)
	}
}

func TestRunCheckpointedResumeIsBitIdentical(t *testing.T) {
	const trials = 40
	want := runAt(1, trials, cpTrial, cpMerge)

	for _, cancelAt := range []int64{1, 7, 20, 39} {
		for _, workers := range []int{1, 2, 7} {
			cp := tmpCheckpoint(t)
			ctx, cancel := context.WithCancel(context.Background())
			var done atomic.Int64
			_, err := Map(ctx, trials, cpTrial, func(i int, r cpResult) error {
				if done.Add(1) == cancelAt {
					cancel()
				}
				return nil
			}, Options{Workers: workers, Checkpoint: cp})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelAt=%d workers=%d: err = %v, want Canceled", cancelAt, workers, err)
			}
			if _, err := os.Stat(cp.Path); err != nil {
				t.Fatalf("cancelAt=%d workers=%d: interrupted run kept no checkpoint: %v", cancelAt, workers, err)
			}

			// Resume at a different worker count than the interrupted run.
			var fresh atomic.Int64
			results, err := Map(context.Background(), trials,
				func(w, i int) cpResult { fresh.Add(1); return cpTrial(w, i) },
				nil, Options{Workers: workers%3 + 1, Checkpoint: cp})
			if err != nil {
				t.Fatalf("cancelAt=%d workers=%d: resume failed: %v", cancelAt, workers, err)
			}
			if got := Fold(results, cpMerge); !reflect.DeepEqual(got, want) {
				t.Fatalf("cancelAt=%d workers=%d: resumed result differs from uninterrupted run", cancelAt, workers)
			}
			if n := fresh.Load(); n > trials-cancelAt {
				t.Fatalf("cancelAt=%d workers=%d: resume re-ran %d trials, at most %d were outstanding",
					cancelAt, workers, n, trials-cancelAt)
			}
		}
	}
}

func TestMapCheckpointedToleratesTruncatedTail(t *testing.T) {
	const trials = 12
	cp := tmpCheckpoint(t)
	// Write a complete checkpoint by interrupting at the very end, then chop
	// bytes off the tail to simulate a crash mid-write.
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	_, err := Map(ctx, trials, cpTrial, func(i int, r cpResult) error {
		if done.Add(1) == trials-1 {
			cancel()
		}
		return nil
	}, Options{Workers: 1, Checkpoint: cp})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cp.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cp.Path, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := Map(context.Background(), trials, cpTrial, nil, Options{Workers: 2, Checkpoint: cp})
	if err != nil {
		t.Fatalf("resume over truncated tail failed: %v", err)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], cpTrial(0, i)) {
			t.Fatalf("trial %d corrupted after truncated-tail resume", i)
		}
	}
}

func TestCheckpointKeyMismatchRejected(t *testing.T) {
	cp := tmpCheckpoint(t)
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	_, _ = Map(ctx, 10, cpTrial, func(i int, r cpResult) error {
		if done.Add(1) == 3 {
			cancel()
		}
		return nil
	}, Options{Workers: 1, Checkpoint: cp})
	cancel()

	other := cp
	other.Key = "test|seed=2"
	_, err := Map(context.Background(), 10, cpTrial, nil, Options{Workers: 1, Checkpoint: other})
	if err == nil || !strings.Contains(err.Error(), "different experiment") {
		t.Fatalf("key mismatch not rejected: %v", err)
	}

	_, err = Map(context.Background(), 11, cpTrial, nil, Options{Workers: 1, Checkpoint: cp})
	if err == nil || !strings.Contains(err.Error(), "trials") {
		t.Fatalf("trial-count mismatch not rejected: %v", err)
	}
}

func TestCheckpointPanickedTrialNotRecorded(t *testing.T) {
	cp := tmpCheckpoint(t)
	_, err := Map(context.Background(), 6, func(_, i int) cpResult {
		if i == 2 {
			panic("flaky trial")
		}
		return cpTrial(0, i)
	}, nil, Options{Workers: 2, Checkpoint: cp})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Trial != 2 {
		t.Fatalf("err = %v, want PanicError for trial 2", err)
	}
	// The checkpoint survives with the healthy trials; a fixed binary can
	// resume and only re-run the panicked one.
	var fresh atomic.Int64
	got, err := Map(context.Background(), 6, func(_, i int) cpResult {
		fresh.Add(1)
		return cpTrial(0, i)
	}, nil, Options{Workers: 1, Checkpoint: cp})
	if err != nil {
		t.Fatalf("resume after panic failed: %v", err)
	}
	if fresh.Load() != 1 {
		t.Fatalf("resume re-ran %d trials, want just the panicked one", fresh.Load())
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], cpTrial(0, i)) {
			t.Fatalf("trial %d wrong after panic-resume", i)
		}
	}
}

// skipCountingObserver also implements the checkpoint layer's skipReporter.
type skipCountingObserver struct {
	countingObserver
	skipped atomic.Int64
}

func (o *skipCountingObserver) SkipTrials(n int) { o.skipped.Add(int64(n)) }

func TestCheckpointReportsSkipsToObserver(t *testing.T) {
	cp := tmpCheckpoint(t)
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	_, _ = Map(ctx, 10, cpTrial, func(i int, r cpResult) error {
		if done.Add(1) == 4 {
			cancel()
		}
		return nil
	}, Options{Workers: 1, Checkpoint: cp})
	cancel()

	var obs skipCountingObserver
	_, err := Map(context.Background(), 10, cpTrial, nil, Options{Workers: 2, Observer: &obs, Checkpoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	skipped := obs.skipped.Load()
	if skipped < 4 || skipped >= 10 {
		t.Fatalf("observer told of %d restored trials, interrupted run completed at least 4", skipped)
	}
	if obs.starts.Load() != 10-skipped {
		t.Fatalf("observer saw %d fresh starts with %d restored", obs.starts.Load(), skipped)
	}
}

func TestCheckpointDisabledPassthrough(t *testing.T) {
	got, err := Map(context.Background(), 5, cpTrial, nil, Options{Workers: 1, Checkpoint: Checkpoint{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d results", len(got))
	}
}

func TestCheckpointCreatesParentDirectory(t *testing.T) {
	dir := t.TempDir()
	cp := Checkpoint{Path: filepath.Join(dir, "nested", "deep", "run.ckpt"), Key: "k"}
	_, err := Map(context.Background(), 3, cpTrial, nil, Options{Workers: 1, Checkpoint: cp})
	if err != nil {
		t.Fatal(err)
	}
}
