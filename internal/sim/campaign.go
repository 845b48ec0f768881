package sim

import (
	"context"
	"fmt"

	"pride/internal/dram"
	"pride/internal/engine"
	"pride/internal/patterns"
	"pride/internal/rng"
	"pride/internal/trialrunner"
)

// CampaignOptions is kept as a name for the benchmark harness (perfbench, a
// separate frozen module) that spells it out; every campaign in this
// repository takes trialrunner.Options.
type CampaignOptions = trialrunner.Options

// AttackParams is the Fig 15 attack bank: DDR5 with 8192 rows, enough for
// the attacks' small row window and faster than a full bank. Attack keys
// embed it, so every CLI and the daemon share this one definition.
func AttackParams() dram.Params {
	p := dram.DDR5()
	p.RowsPerBank = 8192
	p.RowBits = 13
	return p
}

// The campaigns shard a suite evaluation into one trial per (pattern,
// seed-index) pair. Trial t always replays a private clone of
// suite[t/seeds] with the index-derived stream seed rng.DeriveSeed(baseSeed,
// t), and partial results merge in trial order, so the output is a pure
// function of (cfg, scheme, suite, seeds, baseSeed, engine) — the worker
// count only changes wall-clock time.

// mergeWorst folds trial results exactly like the serial suite loop:
// first-wins maximum for the disturbance headline (and its pattern
// attribution), running maximum for peak hammers, sums for flips and
// mitigations.
func mergeWorst(acc, next AttackResult) AttackResult {
	if next.MaxDisturbance > acc.MaxDisturbance {
		acc.MaxDisturbance = next.MaxDisturbance
		acc.Pattern = next.Pattern
	}
	if next.MaxHammers > acc.MaxHammers {
		acc.MaxHammers = next.MaxHammers
	}
	acc.Flips += next.Flips
	acc.Mitigations += next.Mitigations
	return acc
}

// AttackCampaignKey is the canonical checkpoint key of a Fig 15 suite
// campaign: everything the trial grid and per-trial seeds depend on
// (configuration, scheme name, suite size, seeds per pattern, base seed) and
// nothing else. Pattern suites are deterministic given their size in this
// repository; a caller mixing suites of equal length under one path must set
// Checkpoint.Key itself.
func AttackCampaignKey(cfg AttackConfig, s Scheme, suiteLen, seeds int, baseSeed uint64, eng engine.Kind) string {
	return fmt.Sprintf("sim.attack|scheme=%s|params=%+v|acts=%d|trh=%d|policy=%d|patterns=%d|seeds=%d|seed=%d%s",
		s.Name, cfg.Params, cfg.ACTs, cfg.TRH, cfg.Policy, suiteLen, seeds, baseSeed, engine.KeySuffix(eng))
}

// MaxDisturbanceOverSuiteCampaign is the campaign form of
// MaxDisturbanceOverSuite: the same trial grid (every pattern x `seeds`
// trials), with per-trial seeds derived by index instead of drawn
// sequentially, run on a trialrunner pool — so the merged result is
// bit-for-bit identical at any worker count — with cancellation, graceful
// drain, per-trial panic isolation, durable checkpoint/resume, and progress
// metering.
func MaxDisturbanceOverSuiteCampaign(ctx context.Context, cfg AttackConfig, s Scheme, suite []*patterns.Pattern, seeds int, baseSeed uint64, opts trialrunner.Options) (AttackResult, error) {
	if len(suite) == 0 || seeds < 1 {
		panic(fmt.Sprintf("sim: suite of %d patterns x %d seeds has no trials", len(suite), seeds))
	}
	if opts.Checkpoint.Key == "" {
		opts.Checkpoint.Key = AttackCampaignKey(cfg, s, len(suite), seeds, baseSeed, opts.Engine)
	}
	cfg.SelfCheck = cfg.SelfCheck || opts.SelfCheck
	trials := len(suite) * seeds
	// One scratch arena per worker index: trials run by the same worker
	// reuse the DRAM bank and the pattern clones.
	scratch := make([]attackScratch, opts.PoolSize(trials))
	results, err := trialrunner.Map(ctx, trials, func(worker, t int) AttackResult {
		sc := &scratch[worker]
		pat := sc.clone(suite, t/seeds)
		seed := rng.DeriveSeed(baseSeed, uint64(t))
		// A tripped event-engine guard re-runs the trial on the exact
		// engine against a freshly-reset bank and the same derived seed.
		return trialrunner.Guarded(&opts, "sim.event", t,
			func() AttackResult { return runAttackEvent(cfg, s, pat, seed, sc.bankFor(cfg.Params, cfg.TRH)) },
			func() AttackResult { return runAttack(cfg, s, pat, seed, sc.bankFor(cfg.Params, cfg.TRH)) })
	}, func(t int, r AttackResult) error {
		opts.AddActivations(int64(cfg.ACTs))
		opts.AddMitigations(int64(r.Mitigations))
		return nil
	}, opts)
	if err != nil {
		return AttackResult{}, err
	}
	// Fold from a zero accumulator like the serial loop, so the Pattern
	// headline is only attributed to trials that actually disturbed rows.
	worst := AttackResult{Scheme: s.Name}
	for _, res := range results {
		worst = mergeWorst(worst, res)
	}
	return worst, nil
}

// SuiteLossCampaignKey is the canonical checkpoint key of a Fig 18 suite
// loss campaign. The same suite-identity caveat as AttackCampaignKey
// applies.
func SuiteLossCampaignKey(entries, w, suiteLen, acts int, baseSeed uint64, eng engine.Kind) string {
	return fmt.Sprintf("sim.suiteloss|n=%d|w=%d|patterns=%d|acts=%d|seed=%d%s",
		entries, w, suiteLen, acts, baseSeed, engine.KeySuffix(eng))
}

// totalMitigated sums the mitigation counter across a measurement's rows.
func (m LossMeasurement) totalMitigated() int64 {
	var total int64
	for _, r := range m.Rows {
		total += int64(r.Mitigated)
	}
	return total
}

// MeasureSuiteLossCampaign runs the Fig 18 / Appendix C loss measurement for
// every trace in the suite on a trialrunner pool, with the same
// cancellation/checkpoint/metering contract as
// MaxDisturbanceOverSuiteCampaign. Trace i always gets seed
// rng.DeriveSeed(baseSeed, i) and a private pattern clone, so on a nil error
// the measurements come back in suite order, bit-identical at any worker
// count.
func MeasureSuiteLossCampaign(ctx context.Context, entries, w int, suite []*patterns.Pattern, acts int, baseSeed uint64, opts trialrunner.Options) ([]LossMeasurement, error) {
	if opts.Checkpoint.Key == "" {
		opts.Checkpoint.Key = SuiteLossCampaignKey(entries, w, len(suite), acts, baseSeed, opts.Engine)
	}
	// Per-worker row accumulators: each pattern appears once per campaign so
	// clone caching buys nothing here, but the fate table is reused.
	scratch := make([]lossMeasureScratch, opts.PoolSize(len(suite)))
	return trialrunner.Map(ctx, len(suite), func(worker, i int) LossMeasurement {
		seed := rng.DeriveSeed(baseSeed, uint64(i))
		return trialrunner.Guarded(&opts, "sim.event", i,
			func() LossMeasurement {
				return measurePatternLossEvent(entries, w, suite[i].Clone(), acts, seed, &scratch[worker], opts.SelfCheck)
			},
			func() LossMeasurement {
				return measurePatternLoss(entries, w, suite[i].Clone(), acts, seed, &scratch[worker], opts.SelfCheck)
			})
	}, func(i int, m LossMeasurement) error {
		opts.AddActivations(int64(acts))
		opts.AddMitigations(m.totalMitigated())
		return nil
	}, opts)
}
