package sim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"pride/internal/trialrunner"
)

// attackSink is a Progress sink that can cancel a context after a fixed
// number of completed trials — the test stand-in for a SIGINT landing
// mid-campaign.
type attackSink struct {
	mu          sync.Mutex
	cancel      context.CancelFunc
	cancelAfter int
	trials      int
	activations int64
	mitigations int64
}

func (s *attackSink) AddActivations(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trials++
	s.activations += n
	if s.cancel != nil && s.trials == s.cancelAfter {
		s.cancel()
	}
}

func (s *attackSink) AddMitigations(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mitigations += n
}

func TestAttackCampaignMatchesParallel(t *testing.T) {
	// The serial (Workers 1) campaign matches a parallel one.
	suite := parallelSuite(5)
	cfg := attackCfg(10_000)
	want := suiteAt(cfg, PrIDEScheme(), suite, 2, 77, 1)
	got, err := MaxDisturbanceOverSuiteCampaign(context.Background(), cfg, PrIDEScheme(), suite, 2, 77, trialrunner.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("parallel campaign %+v differs from serial %+v", got, want)
	}
}

func TestAttackCampaignResumeIsBitIdentical(t *testing.T) {
	suite := parallelSuite(9)
	cfg := attackCfg(5_000)
	const seeds, baseSeed = 3, 13
	want := suiteAt(cfg, PrIDEScheme(), suite, seeds, baseSeed, 1)

	cancelPoints := []int{2, 7, 11}
	if testing.Short() {
		cancelPoints = []int{7}
	}
	for _, cancelAfter := range cancelPoints {
		for _, workers := range []int{1, 4} {
			path := filepath.Join(t.TempDir(), "attack.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			sink := &attackSink{cancel: cancel, cancelAfter: cancelAfter}
			_, err := MaxDisturbanceOverSuiteCampaign(ctx, cfg, PrIDEScheme(), suite, seeds, baseSeed, trialrunner.Options{
				Workers:    workers,
				Checkpoint: trialrunner.Checkpoint{Path: path},
				Progress:   sink,
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelAfter=%d workers=%d: err = %v, want Canceled", cancelAfter, workers, err)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("cancelAfter=%d workers=%d: no checkpoint after interrupt: %v", cancelAfter, workers, err)
			}

			got, err := MaxDisturbanceOverSuiteCampaign(context.Background(), cfg, PrIDEScheme(), suite, seeds, baseSeed, trialrunner.Options{
				Workers:    workers%3 + 1,
				Checkpoint: trialrunner.Checkpoint{Path: path},
			})
			if err != nil {
				t.Fatalf("cancelAfter=%d workers=%d: resume failed: %v", cancelAfter, workers, err)
			}
			if got != want {
				t.Fatalf("cancelAfter=%d workers=%d: resumed %+v differs from uninterrupted %+v",
					cancelAfter, workers, got, want)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("cancelAfter=%d workers=%d: completed campaign left its checkpoint behind", cancelAfter, workers)
			}
		}
	}
}

func TestSuiteLossCampaignMatchesParallelAndMeters(t *testing.T) {
	// The serial (Workers 1) campaign matches a metered parallel one.
	suite := parallelSuite(21)
	const acts, baseSeed = 30_000, 3
	want := suiteLossAt(64, 79, suite, acts, baseSeed, 1)

	sink := &attackSink{}
	got, err := MeasureSuiteLossCampaign(context.Background(), 64, 79, suite, acts, baseSeed, trialrunner.Options{Workers: 3, Progress: sink})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("parallel campaign measurements differ from the serial ones")
	}
	if sink.activations != int64(len(suite))*acts {
		t.Fatalf("sink saw %d activations, campaign replayed %d", sink.activations, int64(len(suite))*acts)
	}
	if sink.mitigations == 0 {
		t.Fatal("no mitigations metered over the whole suite")
	}
}

func TestSuiteLossCampaignResumeIsBitIdentical(t *testing.T) {
	suite := parallelSuite(4)
	const acts, baseSeed = 20_000, 17
	want := suiteLossAt(64, 79, suite, acts, baseSeed, 1)

	path := filepath.Join(t.TempDir(), "suiteloss.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	sink := &attackSink{cancel: cancel, cancelAfter: 1}
	_, err := MeasureSuiteLossCampaign(ctx, 64, 79, suite, acts, baseSeed, trialrunner.Options{
		Workers:    1,
		Checkpoint: trialrunner.Checkpoint{Path: path},
		Progress:   sink,
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}

	got, err := MeasureSuiteLossCampaign(context.Background(), 64, 79, suite, acts, baseSeed, trialrunner.Options{
		Workers:    2,
		Checkpoint: trialrunner.Checkpoint{Path: path},
	})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed suite-loss measurements differ from uninterrupted run")
	}
}
