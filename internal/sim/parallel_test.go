package sim

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"pride/internal/patterns"
	"pride/internal/rng"
	"pride/internal/trialrunner"
)

// suiteAt and suiteLossAt run the campaign forms at a worker count with no
// context and no checkpoint; a failing trial fails loudly.
func suiteAt(cfg AttackConfig, s Scheme, suite []*patterns.Pattern, seeds int, baseSeed uint64, workers int) AttackResult {
	res, err := MaxDisturbanceOverSuiteCampaign(context.Background(), cfg, s, suite, seeds, baseSeed, trialrunner.Options{Workers: workers})
	trialrunner.MustPanicFree(err)
	return res
}

func suiteLossAt(entries, w int, suite []*patterns.Pattern, acts int, baseSeed uint64, workers int) []LossMeasurement {
	ms, err := MeasureSuiteLossCampaign(context.Background(), entries, w, suite, acts, baseSeed, trialrunner.Options{Workers: workers})
	trialrunner.MustPanicFree(err)
	return ms
}

func simWorkerGrid() []int {
	grid := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		grid = append(grid, n)
	}
	return grid
}

func parallelSuite(seed uint64) []*patterns.Pattern {
	return []*patterns.Pattern{
		patterns.SingleSided(2000),
		patterns.TRRespass(1000, 20, 3),
		patterns.DoubleSided(3000),
		patterns.UniformRandom(4096, 512, rng.New(seed)),
	}
}

func TestMaxDisturbanceOverSuiteParallelDeterministic(t *testing.T) {
	suite := parallelSuite(5)
	cfg := attackCfg(30_000)
	for _, scheme := range []Scheme{PrIDEScheme(), PrIDERFMScheme(16)} {
		t.Run(scheme.Name, func(t *testing.T) {
			want := suiteAt(cfg, scheme, suite, 2, 77, 1)
			if want.MaxDisturbance == 0 || want.Pattern == "" {
				t.Fatalf("degenerate merged result: %+v", want)
			}
			for _, workers := range simWorkerGrid()[1:] {
				got := suiteAt(cfg, scheme, suite, 2, 77, workers)
				if got != want {
					t.Fatalf("workers=%d: %+v != serial %+v", workers, got, want)
				}
			}
		})
	}
}

func TestMaxDisturbanceOverSuiteParallelMatchesSerialShape(t *testing.T) {
	// The parallel adapter derives seeds by index rather than sequentially,
	// so exact equality with the legacy serial function is not expected —
	// but both estimate the same worst case, and PrIDE's bound must hold
	// for either.
	suite := parallelSuite(9)
	cfg := attackCfg(40_000)
	serial := MaxDisturbanceOverSuite(cfg, PrIDEScheme(), suite, 2, 13)
	par := suiteAt(cfg, PrIDEScheme(), suite, 2, 13, 4)
	if par.Scheme != serial.Scheme {
		t.Fatalf("scheme label %q != %q", par.Scheme, serial.Scheme)
	}
	lo, hi := serial.MaxDisturbance, par.MaxDisturbance
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo == 0 || hi > 3*lo {
		t.Fatalf("serial %d and parallel %d worst disturbances implausibly far apart",
			serial.MaxDisturbance, par.MaxDisturbance)
	}
}

func TestMeasureSuiteLossParallelDeterministic(t *testing.T) {
	suite := patterns.Fig18Suite(4096, 150, 21)
	if len(suite) < 3 {
		t.Fatalf("suite too small: %d", len(suite))
	}
	want := suiteLossAt(4, 79, suite, 60_000, 33, 1)
	if len(want) != len(suite) {
		t.Fatalf("measurements = %d, want %d", len(want), len(suite))
	}
	for i, m := range want {
		if m.Pattern != suite[i].Name {
			t.Fatalf("measurement %d is for %q, want %q (suite order broken)", i, m.Pattern, suite[i].Name)
		}
	}
	for _, workers := range simWorkerGrid()[1:] {
		got := suiteLossAt(4, 79, suite, 60_000, 33, workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged from serial measurements", workers)
		}
	}
}

func TestMaxDisturbanceOverSuiteParallelPanicsOnEmptyGrid(t *testing.T) {
	for name, f := range map[string]func(){
		"empty suite": func() {
			suiteAt(attackCfg(1000), PrIDEScheme(), nil, 1, 1, 1)
		},
		"zero seeds": func() {
			suiteAt(attackCfg(1000), PrIDEScheme(), parallelSuite(1), 0, 1, 1)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPatternCloneIsIndependent(t *testing.T) {
	pat := patterns.TRRespass(100, 5, 2)
	pat.Next()
	pat.Next()
	clone := pat.Clone()
	if clone.Name != pat.Name || clone.Len() != pat.Len() {
		t.Fatalf("clone lost identity: %+v", clone)
	}
	// The clone starts rewound and advancing it must not move the parent.
	first := clone.Next()
	if first != pat.Sequence[0] {
		t.Fatalf("clone did not rewind: first = %d, want %d", first, pat.Sequence[0])
	}
	if next := pat.Next(); next != pat.Sequence[2] {
		t.Fatalf("advancing clone moved parent cursor: got %d, want %d", next, pat.Sequence[2])
	}
}
