package system

import (
	"context"
	"runtime"
	"testing"

	"pride/internal/sim"
	"pride/internal/trialrunner"
)

// mttfAt runs the campaign form at a worker count with no context and no
// checkpoint; a failing trial fails loudly.
func mttfAt(cfg Config, s sim.Scheme, trials int, seed uint64, workers int) (meanSeconds float64, failed int) {
	mean, failed, err := MeasureMTTFCampaign(context.Background(), cfg, s, trials, seed, trialrunner.Options{Workers: workers})
	trialrunner.MustPanicFree(err)
	return mean, failed
}

func sysWorkerGrid() []int {
	grid := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		grid = append(grid, n)
	}
	return grid
}

func TestMeasureMTTFParallelDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{Params: sysParams(), Banks: 2, TRH: 150, MaxTREFI: 30_000}
	wantMean, wantFailed := mttfAt(cfg, sim.PrIDEScheme(), 8, 11, 1)
	if wantFailed == 0 {
		t.Fatal("no failures at TRH=150; cannot exercise the merge path")
	}
	for _, workers := range sysWorkerGrid()[1:] {
		mean, failed := mttfAt(cfg, sim.PrIDEScheme(), 8, 11, workers)
		if mean != wantMean || failed != wantFailed {
			t.Fatalf("workers=%d: (%.17g, %d) != serial (%.17g, %d)",
				workers, mean, failed, wantMean, wantFailed)
		}
	}
}

func TestMeasureMTTFParallelAgreesWithSerialSampler(t *testing.T) {
	// Same index-derived trial seeds, same estimator: the serial sampler and
	// the worker pool must agree bit for bit, not just statistically.
	cfg := Config{Params: sysParams(), Banks: 2, TRH: 120, MaxTREFI: 40_000}
	serialMean, serialFailed := mttfAt(cfg, sim.PrIDEScheme(), 8, 23, 1)
	parMean, parFailed := mttfAt(cfg, sim.PrIDEScheme(), 8, 23, 4)
	if serialFailed < 6 {
		t.Fatalf("insufficient failures: serial %d", serialFailed)
	}
	if serialMean != parMean || serialFailed != parFailed {
		t.Fatalf("serial (%.17g, %d) != parallel (%.17g, %d)",
			serialMean, serialFailed, parMean, parFailed)
	}
}

func TestMeasureMTTFParallelPanicsOnZeroTrials(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0 trials did not panic")
		}
	}()
	mttfAt(Config{Params: sysParams(), Banks: 1, TRH: 100, MaxTREFI: 10},
		sim.PrIDEScheme(), 0, 1, 1)
}
