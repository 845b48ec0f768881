package montecarlo

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

func checkpointAt(path string) trialrunner.Checkpoint {
	return trialrunner.Checkpoint{Path: path}
}

// cancellingSink is a Progress sink that cancels a context after a fixed
// number of chunk completions — the test stand-in for a SIGINT landing
// mid-campaign.
type cancellingSink struct {
	mu          sync.Mutex
	cancel      context.CancelFunc
	cancelAfter int
	chunks      int
	periods     int64
	mitigations int64
}

func (s *cancellingSink) AddPeriods(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chunks++
	s.periods += n
	if s.cancel != nil && s.chunks == s.cancelAfter {
		s.cancel()
	}
}

func (s *cancellingSink) AddMitigations(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mitigations += n
}

func TestLossCampaignMatchesParallel(t *testing.T) {
	// The serial (Workers 1) campaign matches a parallel one.
	c := cfg(2, 12*4096)
	want := lossAt(c, 99, 1)
	got, err := SimulateLossCampaign(context.Background(), c, 99, trialrunner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("parallel campaign result differs from the serial one")
	}
}

func TestLossCampaignProgressTotals(t *testing.T) {
	c := cfg(2, 9*4096)
	sink := &cancellingSink{}
	res, err := SimulateLossCampaign(context.Background(), c, 3, trialrunner.Options{Workers: 2, Progress: sink})
	if err != nil {
		t.Fatal(err)
	}
	if sink.periods != int64(c.Periods) {
		t.Fatalf("sink saw %d periods, campaign simulated %d", sink.periods, c.Periods)
	}
	if sink.chunks != LossCampaignTrials(c) {
		t.Fatalf("sink saw %d chunks, plan has %d", sink.chunks, LossCampaignTrials(c))
	}
	if sink.mitigations != res.totalMitigations() || sink.mitigations == 0 {
		t.Fatalf("sink saw %d mitigations, result holds %d", sink.mitigations, res.totalMitigations())
	}
}

func TestLossCampaignResumeIsBitIdentical(t *testing.T) {
	c := cfg(2, 16*4096)
	const seed = 42
	want := lossAt(c, seed, 1)

	cancelPoints := []int{1, 8, 15}
	if testing.Short() {
		cancelPoints = []int{8}
	}
	for _, cancelAfter := range cancelPoints {
		for _, workers := range []int{1, 3} {
			path := filepath.Join(t.TempDir(), "loss.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			sink := &cancellingSink{cancel: cancel, cancelAfter: cancelAfter}
			_, err := SimulateLossCampaign(ctx, c, seed, trialrunner.Options{
				Workers:    workers,
				Checkpoint: checkpointAt(path),
				Progress:   sink,
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelAfter=%d workers=%d: err = %v, want Canceled", cancelAfter, workers, err)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("cancelAfter=%d workers=%d: no checkpoint after interrupt: %v", cancelAfter, workers, err)
			}

			got, err := SimulateLossCampaign(context.Background(), c, seed, trialrunner.Options{
				Workers:    workers%3 + 1,
				Checkpoint: checkpointAt(path),
			})
			if err != nil {
				t.Fatalf("cancelAfter=%d workers=%d: resume failed: %v", cancelAfter, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cancelAfter=%d workers=%d: resumed result differs from uninterrupted run", cancelAfter, workers)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("cancelAfter=%d workers=%d: completed campaign left its checkpoint behind", cancelAfter, workers)
			}
		}
	}
}

func TestLossCampaignRejectsForeignCheckpoint(t *testing.T) {
	c := cfg(2, 8*4096)
	path := filepath.Join(t.TempDir(), "loss.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	sink := &cancellingSink{cancel: cancel, cancelAfter: 1}
	_, _ = SimulateLossCampaign(ctx, c, 7, trialrunner.Options{Workers: 1, Checkpoint: checkpointAt(path), Progress: sink})
	cancel()

	// Same path, different seed: the auto key must reject the resume.
	_, err := SimulateLossCampaign(context.Background(), c, 8, trialrunner.Options{Workers: 1, Checkpoint: checkpointAt(path)})
	if err == nil {
		t.Fatal("campaign resumed a checkpoint written under a different seed")
	}
}

func TestRoundsCampaignResumeIsBitIdentical(t *testing.T) {
	rc := RoundConfig{Entries: 2, Window: w79, InsertionProb: 1.0 / w79, TRH: 500, Rounds: 8 * 512}
	const seed = 11
	want := roundsAt(rc, seed, 1)

	path := filepath.Join(t.TempDir(), "rounds.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	sink := &cancellingSink{cancel: cancel, cancelAfter: 3}
	_, err := SimulateRoundsCampaign(ctx, rc, seed, trialrunner.Options{Workers: 2, Checkpoint: checkpointAt(path), Progress: sink})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}

	got, err := SimulateRoundsCampaign(context.Background(), rc, seed, trialrunner.Options{Workers: 3, Checkpoint: checkpointAt(path)})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if got != want {
		t.Fatalf("resumed rounds result %+v differs from uninterrupted %+v", got, want)
	}
	if sink.mitigations != int64(0) && sink.mitigations > int64(rc.Rounds) {
		t.Fatalf("sink mitigations %d exceed round count %d", sink.mitigations, rc.Rounds)
	}
}
