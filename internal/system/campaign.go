package system

import (
	"context"
	"fmt"

	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/rng"
	"pride/internal/sim"
	"pride/internal/trialrunner"
)

// TTFParams is the TTF campaigns' bank: DDR5 with 4096 rows, since
// time-to-fail depends on the tracker, not bank capacity. TTF keys embed it,
// so the CLI and the daemon share this one definition.
func TTFParams() dram.Params {
	p := dram.DDR5()
	p.RowsPerBank = 4096
	p.RowBits = 12
	return p
}

// MTTFCampaignKey is the canonical checkpoint key of a TTF campaign: every
// parameter a trial's outcome depends on, and nothing else (in particular
// not the worker count).
func MTTFCampaignKey(cfg Config, s sim.Scheme, trials int, seed uint64, eng engine.Kind) string {
	return fmt.Sprintf("system.mttf|scheme=%s|params=%+v|banks=%d|trh=%d|maxtrefi=%d|trials=%d|seed=%d%s",
		s.Name, cfg.Params, cfg.Banks, cfg.TRH, cfg.MaxTREFI, trials, seed, engine.KeySuffix(eng))
}

// MeasureMTTFCampaign runs `trials` independent system simulations and
// returns the mean time-to-fail in seconds over the failing trials, plus how
// many trials failed within the horizon; comparing the mean against
// analytic.SystemTTFYears validates the Eq. 1 / Section VII-C chain
// empirically. Trial t runs Run with seed rng.DeriveSeed(seed, t) on a
// trialrunner pool and results fold in trial order, so the mean and failure
// count are a pure function of (cfg, s, trials, seed, engine) and the worker
// count only changes wall-clock time. On top come cancellation with graceful
// drain, per-trial panic isolation, durable checkpoint/resume, and progress
// metering.
func MeasureMTTFCampaign(ctx context.Context, cfg Config, s sim.Scheme, trials int, seed uint64, opts trialrunner.Options) (meanSeconds float64, failed int, err error) {
	if trials < 1 {
		panic(fmt.Sprintf("system: trials must be >= 1, got %d", trials))
	}
	if opts.Checkpoint.Key == "" {
		opts.Checkpoint.Key = MTTFCampaignKey(cfg, s, trials, seed, opts.Engine)
	}
	cfg.SelfCheck = cfg.SelfCheck || opts.SelfCheck
	// One scratch arena per worker index: trials run by the same worker
	// reuse the bank arrays and hammer patterns.
	scratch := make([]runScratch, opts.PoolSize(trials))
	results, err := trialrunner.Map(ctx, trials, func(worker, t int) Result {
		trialSeed := rng.DeriveSeed(seed, uint64(t))
		// A tripped event-engine guard re-runs the trial on the exact
		// engine under the same derived seed (run resets the scratch's
		// banks itself).
		return trialrunner.Guarded(&opts, "system.event", t,
			func() Result { return run(cfg, s, trialSeed, &scratch[worker], engine.Event) },
			func() Result { return run(cfg, s, trialSeed, &scratch[worker], engine.Exact) })
	}, func(t int, r Result) error {
		opts.AddPeriods(int64(r.TREFIsSimulated))
		return nil
	}, opts)
	if err != nil {
		return 0, 0, err
	}
	total := 0.0
	for _, res := range results {
		if res.Failed {
			failed++
			total += res.TimeToFail.Seconds()
		}
	}
	if failed == 0 {
		return 0, 0, nil
	}
	return total / float64(failed), failed, nil
}
