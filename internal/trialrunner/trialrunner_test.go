package trialrunner

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"pride/internal/rng"
)

// workerCounts is the satellite-mandated determinism grid: serial, a small
// pool, and the machine's full width.
func workerCounts() []int {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// mapAt is the fail-loud form of Map the pool tests compare against: no
// cancellation, no checkpoint, and a panicking trial re-panics.
func mapAt[R any](workers, trials int, trial func(worker, i int) R) []R {
	if err := ValidateWorkers(workers); err != nil {
		panic(err)
	}
	results, err := Map(context.Background(), trials, trial, nil, Options{Workers: workers})
	MustPanicFree(err)
	return results
}

// runAt folds mapAt's results in trial order.
func runAt[R any](workers, trials int, trial func(worker, i int) R, merge func(acc, next R) R) R {
	return Fold(mapAt(workers, trials, trial), merge)
}

func TestMapReturnsResultsInTrialOrder(t *testing.T) {
	for _, workers := range workerCounts() {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := mapAt(workers, 100, func(_, i int) int { return i * i })
			for i, v := range got {
				if v != i*i {
					t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
				}
			}
		})
	}
}

func TestRunFoldsInTrialOrder(t *testing.T) {
	// A deliberately non-commutative merge (list append): the fold order,
	// and hence the output, must be 0..n-1 for every worker count.
	want := make([]int, 64)
	for i := range want {
		want[i] = i
	}
	for _, workers := range workerCounts() {
		got := runAt(workers, len(want),
			func(_, i int) []int { return []int{i} },
			func(acc, next []int) []int { return append(acc, next...) })
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: fold order broken at %d: got %d", workers, i, got[i])
			}
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	// A seeded stochastic trial: each trial consumes its own derived RNG
	// stream, so the merged sum must be identical for every worker count.
	const seed, trials = 99, 200
	trial := func(_, i int) uint64 {
		s := rng.Derived(seed, uint64(i))
		total := uint64(0)
		for d := 0; d < 1000; d++ {
			total += s.Uint64()
		}
		return total
	}
	merge := func(a, b uint64) uint64 { return a + b }
	want := runAt(1, trials, trial, merge)
	for _, workers := range workerCounts()[1:] {
		if got := runAt(workers, trials, trial, merge); got != want {
			t.Fatalf("workers=%d: merged sum %#x != serial %#x", workers, got, want)
		}
	}
}

func TestMapHandlesEdgeShapes(t *testing.T) {
	if got := mapAt(8, 0, func(_, i int) int { return i }); len(got) != 0 {
		t.Fatalf("0 trials returned %d results", len(got))
	}
	// More workers than trials: the pool must clamp, not deadlock.
	got := mapAt(64, 3, func(_, i int) int { return i + 1 })
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}
}

func TestValidateWorkers(t *testing.T) {
	for _, bad := range []int{0, -1, -100} {
		if err := ValidateWorkers(bad); err == nil {
			t.Errorf("workers=%d accepted", bad)
		}
	}
	for _, good := range []int{1, 2, 128} {
		if err := ValidateWorkers(good); err != nil {
			t.Errorf("workers=%d rejected: %v", good, err)
		}
	}
}

func TestDefaultWorkersMatchesNumCPU(t *testing.T) {
	if got := DefaultWorkers(); got != runtime.NumCPU() {
		t.Fatalf("DefaultWorkers() = %d, want %d", got, runtime.NumCPU())
	}
}

func TestMapPanicsOnInvalidInput(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Map(-1 workers)", func() {
		Map(context.Background(), 5, func(_, i int) int { return i }, nil, Options{Workers: -1})
	})
	mustPanic("Map(-1 trials)", func() {
		Map(context.Background(), -1, func(_, i int) int { return i }, nil, Options{Workers: 1})
	})
	mustPanic("Fold(0 results)", func() { Fold(nil, func(a, b int) int { return a + b }) })
}
